package covidkg_test

import (
	"context"
	"fmt"
	"testing"

	"covidkg"
	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/search"
)

// TestLargeCorpusEndToEnd is a scaled-up integration run: a 10k-document
// corpus through ingest, sharding, and all three search engines. Skipped
// under -short; it exists to catch quadratic blowups and memory
// pathologies the small tests never trigger (the paper runs at 450k —
// this exercises the same code paths at reduced scale).
func TestLargeCorpusEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("large-corpus stress test (run without -short)")
	}
	const nDocs = 10000
	store := docstore.Open(docstore.WithShards(8))
	coll := store.Collection("pubs")
	g := cord19.NewGenerator(404)
	for i := 0; i < nDocs; i += 1000 {
		for _, p := range g.Corpus(1000) {
			if _, err := coll.Insert(p.Doc()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if coll.Count() != nDocs {
		t.Fatalf("count = %d", coll.Count())
	}

	eng := search.NewEngine(coll)
	for _, q := range []string{"masks", "vaccine side effects", `"viral load"`} {
		page, err := eng.SearchAllContext(context.Background(), q, 1)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if page.Total == 0 {
			t.Fatalf("query %q found nothing in %d docs", q, nDocs)
		}
		if len(page.Results) > search.PerPage {
			t.Fatalf("page overflow: %d", len(page.Results))
		}
	}

	// deep pagination stays consistent
	p1, _ := eng.SearchAllContext(context.Background(), "masks", 1)
	p50, _ := eng.SearchAllContext(context.Background(), "masks", 50)
	if p50.Total != p1.Total {
		t.Fatalf("Total unstable across pages: %d vs %d", p1.Total, p50.Total)
	}
}

// TestLargeKGBuild stress-tests graph fusion volume: thousands of
// subtrees against one graph, then search and serialization at size.
func TestLargeKGBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("large-KG stress test (run without -short)")
	}
	sys := covidkg.New(covidkg.DefaultConfig())
	for i := 0; i < 5000; i++ {
		sub := covidkg.NewSubtree("Vaccines", fmt.Sprintf("Vaccine candidate %d", i))
		if res := sys.Fuse(sub); res.Action != "fused" {
			t.Fatalf("fusion %d: %+v", i, res)
		}
	}
	if sys.GraphSize() < 5000 {
		t.Fatalf("graph size = %d", sys.GraphSize())
	}
	hits, err := sys.GraphSearchContext(context.Background(), "candidate 4999")
	if err != nil || len(hits) != 1 {
		t.Fatalf("search at size: %d hits, %v", len(hits), err)
	}
	blob, err := sys.GraphJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 100000 {
		t.Fatalf("serialized graph suspiciously small: %d bytes", len(blob))
	}
}

// TestLargeAggregation runs a group-by over the 20k-equivalent store
// shape (smaller here to bound runtime) and checks the counts foot.
func TestLargeAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregation stress test (run without -short)")
	}
	store := docstore.Open(docstore.WithShards(8))
	coll := store.Collection("pubs")
	g := cord19.NewGenerator(405)
	const n = 5000
	for _, p := range g.Corpus(n) {
		if _, err := coll.Insert(p.Doc()); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	err := coll.ScanContext(context.Background(), func(d jsondoc.Doc) bool { total++; return true })
	if err != nil || total != n {
		t.Fatalf("scan = %d, %v", total, err)
	}
}
