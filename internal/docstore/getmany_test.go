package docstore

import (
	"context"
	"errors"
	"testing"

	"covidkg/internal/failpoint"
)

// TestCollectionGetManyAligned pins the batch-read contract: docs
// align 1:1 with ids, absent ids produce nil entries (not errors), and
// nothing is reported missing while all shards serve.
func TestCollectionGetManyAligned(t *testing.T) {
	s, _, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 40)

	// Interleave real ids with absent ones, with one duplicate.
	query := []string{ids[0], "nope-1", ids[1], ids[0], "nope-2", ids[2]}
	docs, missing, err := c.GetMany(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(query) {
		t.Fatalf("len(docs) = %d, want %d", len(docs), len(query))
	}
	if len(missing) != 0 {
		t.Fatalf("missing = %v with all shards serving", missing)
	}
	for i, id := range query {
		switch id {
		case "nope-1", "nope-2":
			if docs[i] != nil {
				t.Fatalf("docs[%d] = %v for absent id", i, docs[i])
			}
		default:
			if docs[i] == nil || docs[i][IDField] != id {
				t.Fatalf("docs[%d] = %v, want doc %s", i, docs[i], id)
			}
		}
	}
}

// TestCollectionGetManyDarkShard pins partial-batch degradation: ids
// on a dark shard come back nil, the shard index lands in missing, and
// the rest of the batch is still served.
func TestCollectionGetManyDarkShard(t *testing.T) {
	s, fp, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 60)
	si, _ := shardWithDocs(c, ids)

	fp.Set(ShardTarget(si), failpoint.Rule{Down: true})

	docs, missing, err := c.GetMany(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	served, darkened := 0, 0
	for i, id := range ids {
		if c.ShardOfID(id) == si {
			if docs[i] != nil {
				t.Fatalf("doc %s served from dark shard %d", id, si)
			}
			darkened++
			continue
		}
		if docs[i] == nil {
			t.Fatalf("doc %s on healthy shard came back nil", id)
		}
		served++
	}
	if darkened == 0 || served == 0 {
		t.Fatalf("degenerate split: %d dark, %d served", darkened, served)
	}
	if len(missing) != 1 || missing[0] != si {
		t.Fatalf("missing = %v, want [%d]", missing, si)
	}
}

// TestCollectionGetManyDeadContext pins the only total-failure mode:
// a cancelled context fails the batch as a whole.
func TestCollectionGetManyDeadContext(t *testing.T) {
	s, _, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 10)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetMany(ctx, ids); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetMany with dead ctx = %v, want context.Canceled", err)
	}
}
