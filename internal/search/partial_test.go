package search

import (
	"context"
	"fmt"
	"testing"
	"time"

	"covidkg/internal/breaker"
	"covidkg/internal/docstore"
	"covidkg/internal/failpoint"
	"covidkg/internal/metrics"
)

// partialFixture builds an engine over a 4-shard store with a
// failpoint registry, seeded so every shard holds several matching docs.
func partialFixture(t *testing.T) (*Engine, *docstore.Collection, *failpoint.Registry, *metrics.Registry) {
	t.Helper()
	fp := failpoint.New(1)
	fp.SetSleeper(func(time.Duration) {})
	s := docstore.Open(
		docstore.WithShards(4),
		docstore.WithFailpoints(fp),
		docstore.WithMetrics(metrics.NewRegistry()),
		docstore.WithBreaker(breaker.Config{Threshold: 2, Cooldown: time.Millisecond}),
	)
	c := s.Collection("pubs")
	for i := 0; i < 40; i++ {
		d := pub(fmt.Sprintf("p%02d", i),
			fmt.Sprintf("Covid study %d", i),
			"Results obtained with the standard covid assay.",
			"Body text about covid outcomes with the usual caveats.")
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(c)
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)
	return e, c, fp, reg
}

// darkenShard downs one shard and returns its index
// plus how many seeded docs live there.
func darkenShard(c *docstore.Collection, fp *failpoint.Registry) (int, int) {
	si := c.ShardOfID("p00")
	fp.Set(docstore.ShardTarget(si), failpoint.Rule{Down: true})
	n := 0
	for i := 0; i < 40; i++ {
		if c.ShardOfID(fmt.Sprintf("p%02d", i)) == si {
			n++
		}
	}
	return si, n
}

func TestSearchPartialOnDarkShardCandidatePath(t *testing.T) {
	e, c, fp, reg := partialFixture(t)
	si, dark := darkenShard(c, fp)
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
	e, c, fp, _ := partialFixture(t)
	si, dark := darkenShard(c, fp)

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
	e, c, fp, _ := partialFixture(t)
	si, _ := darkenShard(c, fp)

	pg, err := e.SearchAllContext(context.Background(), "covid", 1)
	if err != nil || !pg.Partial {
		t.Fatalf("expected partial page, got partial=%v err=%v", pg.Partial, err)
	}

	// shard recovers: clear faults, let the breaker cooldown elapse, and
	// re-close the shard's breaker with a probe read
	fp.ClearAll()
	time.Sleep(5 * time.Millisecond)
	id := ""
	for i := 0; i < 40; i++ {
		if cand := fmt.Sprintf("p%02d", i); c.ShardOfID(cand) == si {
			id = cand
			break
		}
	}
	for i := 0; i < 8; i++ {
		c.Get(id)
	}

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
	e, _, _, reg := partialFixture(t)
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
