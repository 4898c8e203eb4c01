package search

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
)

// TestPaginationPartitionProperty: walking all pages of a query yields
// every matching document exactly once, in non-increasing score order.
func TestPaginationPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := docstore.Open(docstore.WithShards(3))
	c := s.Collection("pubs")
	words := []string{"masks", "vaccines", "fever", "aerosol", "dose"}
	nDocs := 120
	expectMatch := 0
	for i := 0; i < nDocs; i++ {
		hasMask := rng.Intn(2) == 0
		text := words[1+rng.Intn(len(words)-1)]
		if hasMask {
			text += " masks"
			expectMatch++
		}
		c.Insert(jsondoc.Doc{
			"_id": fmt.Sprintf("d%03d", i), "title": text,
			"abstract": "study " + text, "body_text": "",
		})
	}
	e := NewEngine(c)

	seen := map[string]bool{}
	prevScore := -1.0
	total := -1
	for page := 1; ; page++ {
		pg, err := e.SearchAllContext(context.Background(), "masks", page)
		if err != nil {
			t.Fatal(err)
		}
		if total == -1 {
			total = pg.Total
		} else if pg.Total != total {
			t.Fatalf("Total changed across pages: %d vs %d", pg.Total, total)
		}
		if len(pg.Results) == 0 {
			break
		}
		for _, r := range pg.Results {
			if seen[r.DocID] {
				t.Fatalf("doc %s on two pages", r.DocID)
			}
			seen[r.DocID] = true
			if prevScore >= 0 && r.Score > prevScore+1e-9 {
				t.Fatalf("score rose across pages: %v after %v", r.Score, prevScore)
			}
			prevScore = r.Score
		}
	}
	if len(seen) != total {
		t.Fatalf("pages covered %d of %d results", len(seen), total)
	}
	if total != expectMatch {
		t.Fatalf("matched %d, expected %d", total, expectMatch)
	}
}

// TestEnginesAgreeOnTableOnlyTerms: any document found by the table
// engine must also be found by the all-fields engine (tables ⊆ all).
func TestEnginesAgreeOnTableOnlyTerms(t *testing.T) {
	e := testEngine(t)
	tp, err := e.SearchTablesContext(context.Background(), "ventilators", 1)
	if err != nil {
		t.Fatal(err)
	}
	all, err := e.SearchAllContext(context.Background(), "ventilators", 1)
	if err != nil {
		t.Fatal(err)
	}
	allSet := map[string]bool{}
	for _, r := range all.Results {
		allSet[r.DocID] = true
	}
	for _, r := range tp.Results {
		if !allSet[r.DocID] {
			t.Fatalf("table hit %s missing from all-fields results", r.DocID)
		}
	}
}

// TestParallelSerialIdentical: for every engine and fan-out width (the
// engine reads runtime.GOMAXPROCS), parallel execution returns
// byte-identical pages to fully serial execution — ordering, scores,
// snippets, pagination, everything.
func TestParallelSerialIdentical(t *testing.T) {
	s := docstore.Open(docstore.WithShards(4))
	c := s.Collection("pubs")
	g := cord19.NewGenerator(17)
	for _, p := range g.Corpus(250) {
		if _, err := c.Insert(p.Doc()); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(c)
	e.SetCacheLimits(0, 0) // force recomputation each call
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// at returns what search answers at the given width
	at := func(workers int, search func(context.Context, string, int) (Page, error), q string, page int) Page {
		runtime.GOMAXPROCS(workers)
		pg, err := search(context.Background(), q, page)
		if err != nil {
			t.Fatalf("q=%q page=%d workers=%d: %v", q, page, workers, err)
		}
		return pg
	}

	// the stopword-only phrase scans all 250 ids, so its match-and-score
	// pass is wide enough to fan out
	queries := []string{"masks", "vaccine treatment", `"viral load"`, `fever "intensive care"`, "ventilators dose", `"of the"`}
	for _, workers := range []int{2, 8} {
		for _, q := range queries {
			for page := 1; page <= 3; page++ {
				want, got := at(1, e.SearchAllContext, q, page), at(workers, e.SearchAllContext, q, page)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("q=%q page=%d workers=%d: parallel diverged from serial\nserial: %+v\nparallel: %+v",
						q, page, workers, want, got)
				}
			}
			if !reflect.DeepEqual(at(1, e.SearchTablesContext, q, 1), at(workers, e.SearchTablesContext, q, 1)) {
				t.Fatalf("tables q=%q workers=%d diverged", q, workers)
			}
		}
	}
}

// TestIndexConsistencyAfterChurn: add/remove cycles keep search results
// equal to a freshly built engine.
func TestIndexConsistencyAfterChurn(t *testing.T) {
	s := docstore.Open()
	c := s.Collection("pubs")
	e := NewEngine(c)
	var kept []string
	for i := 0; i < 30; i++ {
		id, err := e.AddDocument(pub("", fmt.Sprintf("masks study %d", i), "about masks", ""))
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := e.RemoveDocument(id); err != nil {
				t.Fatal(err)
			}
		} else {
			kept = append(kept, id)
		}
	}
	page, err := e.SearchAllContext(context.Background(), "masks", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != len(kept) {
		t.Fatalf("after churn: %d hits, want %d", page.Total, len(kept))
	}
	// fresh engine over the same collection agrees
	fresh := NewEngine(c)
	fp, _ := fresh.SearchAllContext(context.Background(), "masks", 1)
	if fp.Total != page.Total {
		t.Fatalf("fresh engine disagrees: %d vs %d", fp.Total, page.Total)
	}
}
