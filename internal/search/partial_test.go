package search

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// darkDocs serves a collection over darkShards shards, some of which
// may be dark: a read that needs a dark shard fails with a ShardError
// wrapping ErrShardUnavailable, as the shardnet coordinator reports a
// shard server it cannot reach, and GetMany lists the shard as missing.
// Writes pass through.
type darkDocs struct {
	*docstore.Collection
	mu   sync.Mutex
	dark []int
}

// darkShards is darkDocs' shard count; an id's shard is its fnv32a
// hash mod darkShards.
const darkShards = 4

func (d *darkDocs) NumShards() int { return darkShards }

func (d *darkDocs) ShardOfID(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % darkShards)
}

func (d *darkDocs) darken(si int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !slices.Contains(d.dark, si) {
		d.dark = append(d.dark, si)
	}
}

func (d *darkDocs) heal() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dark = nil
}

// check fails with shard si's ShardError while si is dark.
func (d *darkDocs) check(si int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if slices.Contains(d.dark, si) {
		return &docstore.ShardError{Shard: si, Err: docstore.ErrShardUnavailable}
	}
	return nil
}

func (d *darkDocs) Get(id string) (jsondoc.Doc, error) {
	if err := d.check(d.ShardOfID(id)); err != nil {
		return nil, err
	}
	return d.Collection.Get(id)
}

func (d *darkDocs) GetMany(ctx context.Context, ids []string) ([]jsondoc.Doc, []int, error) {
	docs, _, err := d.Collection.GetMany(ctx, ids)
	if err != nil {
		return nil, nil, err
	}
	var missing []int
	for i, id := range ids {
		if si := d.ShardOfID(id); d.check(si) != nil {
			docs[i] = nil
			if !slices.Contains(missing, si) {
				missing = append(missing, si)
			}
		}
	}
	slices.Sort(missing)
	return docs, missing, nil
}

func (d *darkDocs) ShardIDsContext(ctx context.Context, si int) ([]string, error) {
	if err := d.check(si); err != nil {
		return nil, err
	}
	ids, err := d.Collection.ShardIDsContext(ctx, 0)
	return slices.DeleteFunc(ids, func(id string) bool { return d.ShardOfID(id) != si }), err
}

func (d *darkDocs) ScanContext(ctx context.Context, fn func(jsondoc.Doc) bool) error {
	return docstore.Scan(ctx, d, fn)
}

func (d *darkDocs) AllShardsServing() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.dark) == 0
}

// partialFixture builds an engine over a 4-shard collection that can
// darken its shards, seeded so every shard holds several matching docs.
func partialFixture(t *testing.T) (*Engine, *darkDocs, *metrics.Registry) {
	t.Helper()
	c := &darkDocs{Collection: docstore.Open(docstore.WithShards(4)).Collection("pubs")}
	for i := 0; i < 40; i++ {
		d := pub(fmt.Sprintf("p%02d", i),
			fmt.Sprintf("Covid study %d", i),
			"Results obtained with the standard covid assay.",
			"Body text about covid outcomes with the usual caveats.")
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	if n := seededOn(c, c.ShardOfID("p00")); c.NumShards() != 4 || n == 0 || n == 40 {
		t.Fatalf("%d shards, %d of the 40 seeded docs on p00's shard: want 4 shards and some but not all", c.NumShards(), n)
	}
	e := NewEngine(c)
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)
	return e, c, reg
}

// seededOn counts the seeded docs that live on shard si.
func seededOn(c *darkDocs, si int) int {
	n := 0
	for i := 0; i < 40; i++ {
		if c.ShardOfID(fmt.Sprintf("p%02d", i)) == si {
			n++
		}
	}
	return n
}

// darkenShard darkens p00's shard and returns its index
// plus how many seeded docs live there.
func darkenShard(c *darkDocs) (int, int) {
	si := c.ShardOfID("p00")
	c.darken(si)
	return si, seededOn(c, si)
}

func TestSearchPartialOnDarkShardCandidatePath(t *testing.T) {
	e, c, reg := partialFixture(t)
	si, dark := darkenShard(c)
	if dark == 0 {
		t.Fatal("no seeded doc landed on the darkened shard")
	}

	// "covid" resolves through the inverted index → candidate path
	pg, err := e.SearchAllContext(context.Background(), "covid", 1)
	if err != nil {
		t.Fatalf("search with dark shard must degrade, got error: %v", err)
	}
	if !pg.Partial {
		t.Fatal("page not marked partial with a dark shard")
	}
	if len(pg.MissingShards) != 1 || pg.MissingShards[0] != si {
		t.Fatalf("MissingShards = %v, want [%d]", pg.MissingShards, si)
	}
	if pg.Total != 40-dark {
		t.Fatalf("Total = %d, want %d (40 minus %d dark)", pg.Total, 40-dark, dark)
	}
	for _, r := range pg.Results {
		if c.ShardOfID(r.DocID) == si {
			t.Fatalf("result %s came from the dark shard", r.DocID)
		}
	}
	if got := reg.Counter("partial_responses").Value(); got != 1 {
		t.Fatalf("partial_responses = %d, want 1", got)
	}
}

func TestSearchPartialOnDarkShardScanPath(t *testing.T) {
	e, c, _ := partialFixture(t)
	si, dark := darkenShard(c)

	// a stopword-only phrase is unindexable → full-scan path; the seeded
	// docs contain the literal substring "with the"
	pg, err := e.SearchAllContext(context.Background(), `"with the"`, 1)
	if err != nil {
		t.Fatalf("scan-path search with dark shard must degrade, got error: %v", err)
	}
	if !pg.Partial || len(pg.MissingShards) != 1 || pg.MissingShards[0] != si {
		t.Fatalf("partial=%v missing=%v, want true [%d]", pg.Partial, pg.MissingShards, si)
	}
	if pg.Total != 40-dark {
		t.Fatalf("Total = %d, want %d", pg.Total, 40-dark)
	}
}

func TestPartialPageNeverCached(t *testing.T) {
	e, c, _ := partialFixture(t)
	darkenShard(c)

	pg, err := e.SearchAllContext(context.Background(), "covid", 1)
	if err != nil || !pg.Partial {
		t.Fatalf("expected partial page, got partial=%v err=%v", pg.Partial, err)
	}

	c.heal() // the shard recovers

	// the identical query must now return the full corpus — a cached
	// partial page would keep serving the hole
	pg, err = e.SearchAllContext(context.Background(), "covid", 1)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Partial || pg.Total != 40 {
		t.Fatalf("recovered search partial=%v total=%d, want false 40", pg.Partial, pg.Total)
	}
}

func TestHealthySearchNotPartial(t *testing.T) {
	e, _, reg := partialFixture(t)
	pg, err := e.SearchAllContext(context.Background(), "covid", 1)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Partial || len(pg.MissingShards) != 0 {
		t.Fatalf("healthy search marked partial: %v %v", pg.Partial, pg.MissingShards)
	}
	if got := reg.Counter("partial_responses").Value(); got != 0 {
		t.Fatalf("partial_responses = %d, want 0", got)
	}
}
