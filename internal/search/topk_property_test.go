package search

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/metrics"
)

// parityEngines builds two engines over one collection: a (index-native
// top-k scoring, own metrics registry so path counters are observable)
// and b (pipeline path forced). Caches are disabled so every call
// recomputes.
func parityEngines(t *testing.T, c *docstore.Collection) (a, b *Engine, reg *metrics.Registry) {
	t.Helper()
	reg = metrics.NewRegistry()
	a = NewEngine(c)
	a.SetMetrics(reg)
	a.SetCacheLimits(0, 0)
	b = NewEngine(c)
	b.SetCacheLimits(0, 0)
	b.SetIndexScoring(false)
	return a, b, reg
}

// diffPages asserts two pages are deeply equal AND byte-identical once
// serialized — scores, order, tiebreaks, snippets, NumPages, all of it.
func diffPages(t *testing.T, label string, idx, pipe Page) {
	t.Helper()
	if !reflect.DeepEqual(idx, pipe) {
		t.Fatalf("%s: index path diverged from pipeline path\nindex:    %+v\npipeline: %+v", label, idx, pipe)
	}
	bi, err1 := json.Marshal(idx)
	bp, err2 := json.Marshal(pipe)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: marshal: %v / %v", label, err1, err2)
	}
	if !bytes.Equal(bi, bp) {
		t.Fatalf("%s: pages not byte-identical\nindex:    %s\npipeline: %s", label, bi, bp)
	}
}

// TestTopKPipelineParityRandomized: over randomized corpora and query
// mixes — single terms, multi-term, synonym-bearing, quoted phrases
// (which force the pipeline fallback on both engines), and mixed shapes
// — the index-native top-k path returns byte-identical pages to the
// full materialize-match-rank pipeline, across pages and engines.
func TestTopKPipelineParityRandomized(t *testing.T) {
	words := []string{"masks", "vaccine", "fever", "dose", "ventilators",
		"transmission", "outcomes", "treatment", "immunization", "aerosol"}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := docstore.Open(docstore.WithShards(4))
		c := s.Collection("pubs")
		for _, p := range cord19.NewGenerator(seed).Corpus(80 + int(seed)*60) {
			if _, err := c.Insert(p.Doc()); err != nil {
				t.Fatal(err)
			}
		}
		// synonym-heavy docs: contain only synonyms of likely query terms,
		// so synonym-only recall differences between paths would surface
		for i := 0; i < 10; i++ {
			if _, err := c.Insert(pub(fmt.Sprintf("syn%02d", i),
				"Inoculation schedules in pediatric cohorts",
				"Coronavirus immunization outcomes after inoculation.",
				"Body text about sars-cov-2 and immunization drives.")); err != nil {
				t.Fatal(err)
			}
		}
		a, b, reg := parityEngines(t, c)

		var queries []string
		for i := 0; i < 12; i++ {
			n := 1 + rng.Intn(3)
			q := ""
			for j := 0; j < n; j++ {
				if j > 0 {
					q += " "
				}
				q += words[rng.Intn(len(words))]
			}
			queries = append(queries, q)
		}
		queries = append(queries,
			`"intensive care"`,       // quoted phrase → fallback on both
			`vaccine "viral load"`,   // mixed term+phrase → fallback
			"immunization pediatric", // synonym-bearing multi-term
			"nosuchword",             // zero-hit
		)

		for _, q := range queries {
			for page := 1; page <= 3; page++ {
				pa, err1 := a.SearchAll(q, page)
				pb, err2 := b.SearchAll(q, page)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("seed=%d q=%q page=%d: err %v vs %v", seed, q, page, err1, err2)
				}
				if err1 != nil {
					continue
				}
				diffPages(t, fmt.Sprintf("seed=%d all q=%q page=%d", seed, q, page), pa, pb)
			}
			ta, err1 := a.SearchTables(q, 1)
			tb, err2 := b.SearchTables(q, 1)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed=%d tables q=%q: err %v vs %v", seed, q, err1, err2)
			}
			if err1 == nil {
				diffPages(t, fmt.Sprintf("seed=%d tables q=%q", seed, q), ta, tb)
			}
		}

		// fields engine with random per-field combos
		for i := 0; i < 6; i++ {
			fq := FieldQuery{Title: words[rng.Intn(len(words))]}
			if rng.Intn(2) == 0 {
				fq.Abstract = words[rng.Intn(len(words))]
			}
			if rng.Intn(3) == 0 {
				fq.Caption = words[rng.Intn(len(words))]
			}
			page := 1 + rng.Intn(2)
			fa, err1 := a.SearchFields(fq, page)
			fb2, err2 := b.SearchFields(fq, page)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed=%d fields %+v: err %v vs %v", seed, fq, err1, err2)
			}
			if err1 == nil {
				diffPages(t, fmt.Sprintf("seed=%d fields %+v page=%d", seed, fq, page), fa, fb2)
			}
		}

		if got := reg.Counter("index_path_queries").Value(); got == 0 {
			t.Fatalf("seed=%d: index path served 0 queries", seed)
		}
		if got := reg.Counter("fallback_path_queries").Value(); got == 0 {
			t.Fatalf("seed=%d: phrase queries should have hit the fallback path", seed)
		}
	}
}

// TestTopKPipelineParityAblations: the parity guarantee holds under
// every ranking-ablation option, which exercise the bound construction
// (FlatFields/NoIDF change the per-term maxima, NoSynonyms drops
// expansion slots, NoProximity/NoCoverage drop bound components).
func TestTopKPipelineParityAblations(t *testing.T) {
	s := docstore.Open(docstore.WithShards(3))
	c := s.Collection("pubs")
	for _, p := range cord19.NewGenerator(99).Corpus(150) {
		if _, err := c.Insert(p.Doc()); err != nil {
			t.Fatal(err)
		}
	}
	opts := []RankOptions{
		{},
		{NoSynonyms: true},
		{FlatFields: true},
		{NoIDF: true},
		{NoProximity: true, NoCoverage: true},
		{NoSynonyms: true, FlatFields: true, NoIDF: true, NoProximity: true, NoCoverage: true},
	}
	queries := []string{"vaccine", "masks transmission", "fever dose outcomes", "immunization"}
	for _, o := range opts {
		a, b, _ := parityEngines(t, c)
		a.SetRankOptions(o)
		b.SetRankOptions(o)
		for _, q := range queries {
			for page := 1; page <= 2; page++ {
				pa, err1 := a.SearchAll(q, page)
				pb, err2 := b.SearchAll(q, page)
				if err1 != nil || err2 != nil {
					t.Fatalf("opts=%+v q=%q: %v / %v", o, q, err1, err2)
				}
				diffPages(t, fmt.Sprintf("opts=%+v q=%q page=%d", o, q, page), pa, pb)
			}
		}
	}
}

// TestTopKPruningActuallyPrunes: a corpus engineered so docs matching
// only a weak term cannot displace full-coverage title matches must
// trip the max-score bound — and stay page-identical to the pipeline.
func TestTopKPruningActuallyPrunes(t *testing.T) {
	s := docstore.Open(docstore.WithShards(2))
	c := s.Collection("pubs")
	// 25 strong docs: "masks" in the title (field weight 3) — enough to
	// fill the k=20 heap for page 1
	for i := 0; i < 25; i++ {
		if _, err := c.Insert(pub(fmt.Sprintf("strong%02d", i),
			fmt.Sprintf("Masks zebra policy %d", i), "abstract text", "body text")); err != nil {
			t.Fatal(err)
		}
	}
	// 100 weak docs: only "zebra", once, in the body (weight 1)
	for i := 0; i < 100; i++ {
		if _, err := c.Insert(pub(fmt.Sprintf("weak%03d", i),
			fmt.Sprintf("Unrelated study %d", i), "other abstract", "zebra sightings")); err != nil {
			t.Fatal(err)
		}
	}
	a, b, reg := parityEngines(t, c)
	pa, err := a.SearchAll("masks zebra", 1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.SearchAll("masks zebra", 1)
	if err != nil {
		t.Fatal(err)
	}
	diffPages(t, "pruning corpus", pa, pb)
	if pa.Total != 125 {
		t.Fatalf("Total = %d, want 125", pa.Total)
	}
	for _, r := range pa.Results {
		if len(r.DocID) < 6 || r.DocID[:6] != "strong" {
			t.Fatalf("weak doc %s outranked a full-coverage title match", r.DocID)
		}
	}
	if got := reg.Counter("topk_pruned_docs").Value(); got == 0 {
		t.Fatal("bound never pruned on a corpus built to trigger pruning")
	}
	if got := reg.Counter("index_path_queries").Value(); got != 1 {
		t.Fatalf("index_path_queries = %d, want 1", got)
	}
}

// TestTopKPastEndAndBeyondPages: past-the-end pages agree between paths
// (nil Results, Total/NumPages preserved).
func TestTopKPastEndAndBeyondPages(t *testing.T) {
	s := docstore.Open()
	c := s.Collection("pubs")
	for i := 0; i < 15; i++ {
		if _, err := c.Insert(pub(fmt.Sprintf("p%02d", i),
			fmt.Sprintf("Fever study %d", i), "abstract", "body")); err != nil {
			t.Fatal(err)
		}
	}
	a, b, _ := parityEngines(t, c)
	for _, page := range []int{1, 2, 3, 7} {
		pa, err := a.SearchAll("fever", page)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.SearchAll("fever", page)
		if err != nil {
			t.Fatal(err)
		}
		diffPages(t, fmt.Sprintf("page=%d", page), pa, pb)
	}
}
