package docstore

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"covidkg/internal/jsondoc"
)

func seedDocs(t *testing.T, c *Collection, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id, err := c.Insert(jsondoc.Doc{"n": i, "body": fmt.Sprintf("doc number %d", i)})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	return ids
}

// batchDocs is a collection whose GetMany runs hook on each batch
// before reading it and reports the shards in missing as dark.
type batchDocs struct {
	*Collection
	hook    func(ids []string)
	missing []int
}

func (b *batchDocs) GetMany(ctx context.Context, ids []string) ([]jsondoc.Doc, []int, error) {
	if b.hook != nil {
		b.hook(ids)
	}
	docs, _, err := b.Collection.GetMany(ctx, ids)
	return docs, b.missing, err
}

// scanIDs runs Scan over d and returns the ids it yielded, in order.
func scanIDs(d Docs) ([]string, error) {
	var got []string
	err := Scan(context.Background(), d, func(doc jsondoc.Doc) bool {
		got = append(got, doc.GetString(IDField))
		return true
	})
	return got, err
}

// TestScanContextYieldsIDsInOrder: over any shard count, a scan yields
// exactly IDs(), in that order.
func TestScanContextYieldsIDsInOrder(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		c := Open(WithShards(shards)).Collection("pubs")
		seedDocs(t, c, 2*ScanBatchSize+37)
		got, err := scanIDs(c)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if want := c.IDs(); !slices.Equal(got, want) {
			t.Fatalf("%d shards: scan yielded %d ids, IDs() %d, or in another order", shards, len(got), len(want))
		}
	}
}

// TestScanSkipsDocumentDeletedAfterListing: a document deleted between
// the id listing and the batch that reads it is skipped, and the rest
// of the batch is still delivered.
func TestScanSkipsDocumentDeletedAfterListing(t *testing.T) {
	c := Open(WithShards(4)).Collection("pubs")
	seedDocs(t, c, ScanBatchSize+10)
	ids := c.IDs()
	gone := ids[ScanBatchSize+3] // in the second batch
	b := &batchDocs{Collection: c, hook: func(batch []string) {
		if slices.Contains(batch, gone) {
			if err := c.Delete(gone); err != nil {
				t.Fatal(err)
			}
		}
	}}
	got, err := scanIDs(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := slices.DeleteFunc(ids, func(id string) bool { return id == gone }); !slices.Equal(got, want) {
		t.Fatalf("scan yielded %d ids, want the %d listed ones but %s", len(got), len(want), gone)
	}
}

// TestScanFailsOnMissingShard: a batch that reports a shard missing
// fails the scan with that shard's ShardError.
func TestScanFailsOnMissingShard(t *testing.T) {
	c := Open(WithShards(4)).Collection("pubs")
	seedDocs(t, c, 20)
	b := &batchDocs{Collection: c, missing: []int{2, 3}}
	seen := 0
	err := Scan(context.Background(), b, func(jsondoc.Doc) bool { seen++; return true })
	if si, ok := UnavailableShard(err); !ok || si != 2 {
		t.Fatalf("err = %v, want shard 2's ShardError wrapping ErrShardUnavailable", err)
	}
	if seen != 0 {
		t.Fatalf("callback saw %d documents of a batch with a missing shard", seen)
	}
}

// TestScanBatchesAreBounded: no GetMany the scan makes asks for more
// than ScanBatchSize ids, and together they ask for every id once.
func TestScanBatchesAreBounded(t *testing.T) {
	c := Open(WithShards(4)).Collection("pubs")
	n := 3*ScanBatchSize + 10
	seedDocs(t, c, n)
	var asked []string
	b := &batchDocs{Collection: c, hook: func(batch []string) {
		if len(batch) > ScanBatchSize {
			t.Errorf("GetMany asked for %d ids, want ≤ %d", len(batch), ScanBatchSize)
		}
		asked = append(asked, batch...)
	}}
	if _, err := scanIDs(b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(asked, c.IDs()) {
		t.Fatalf("GetMany asked for %d ids in all, want the %d stored ones once each, in order", len(asked), n)
	}
}
