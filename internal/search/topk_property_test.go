package search

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
	"covidkg/internal/textproc"
)

// parityEngine builds an engine with its own metrics registry (so the
// scoring counters are observable) and the cache disabled, so every call
// recomputes.
func parityEngine(t *testing.T, c docstore.Docs) (*Engine, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	e := NewEngine(c)
	e.SetMetrics(reg)
	e.SetCacheLimits(0, 0)
	return e, reg
}

// diffPages asserts two pages are deeply equal AND byte-identical once
// serialized — scores, order, tiebreaks, snippets, NumPages, all of it.
func diffPages(t *testing.T, label string, got, want Page) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: engine diverged from the oracle\nengine: %+v\noracle: %+v", label, got, want)
	}
	bg, err1 := json.Marshal(got)
	bw, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: marshal: %v / %v", label, err1, err2)
	}
	if !bytes.Equal(bg, bw) {
		t.Fatalf("%s: pages not byte-identical\nengine: %s\noracle: %s", label, bg, bw)
	}
}

// The three engines through the oracle: the engine's own parse and
// candidate resolution, then refRank instead of runQuery.

func refSearch(e *Engine, resolve func([]textproc.QueryTerm) plan, q string, page int) (Page, error) {
	terms, err := queryOrError(q)
	if err != nil {
		return Page{}, err
	}
	return e.refRank(resolve(terms), clampPage(page)), nil
}

func refSearchFields(e *Engine, fq FieldQuery, page int) (Page, error) {
	conds, all, err := parseFieldQuery(fq)
	if err != nil {
		return Page{}, err
	}
	return e.refRank(e.fieldsPlan(conds, all), clampPage(page)), nil
}

// parityPages are the pages every shape is compared on: the first three
// and one far past the end.
var parityPages = []int{1, 2, 3, 1 << 40}

// checkAll compares the all-fields and table engines with the oracle on
// every parity page and returns page 1's Total of the all-fields engine.
func checkAll(t *testing.T, e *Engine, label, q string) int {
	t.Helper()
	total := 0
	for _, page := range parityPages {
		got, err1 := e.SearchAllContext(context.Background(), q, page)
		want, err2 := refSearch(e, e.allPlan, q, page)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s all q=%q page=%d: err %v vs %v", label, q, page, err1, err2)
		}
		if err1 != nil {
			return 0
		}
		diffPages(t, fmt.Sprintf("%s all q=%q page=%d", label, q, page), got, want)
		if page == 1 {
			total = got.Total
		}
		got, err1 = e.SearchTablesContext(context.Background(), q, page)
		want, err2 = refSearch(e, e.tablesPlan, q, page)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s tables q=%q page=%d: %v / %v", label, q, page, err1, err2)
		}
		diffPages(t, fmt.Sprintf("%s tables q=%q page=%d", label, q, page), got, want)
	}
	return total
}

// checkFields is checkAll for the fields engine.
func checkFields(t *testing.T, e *Engine, label string, fq FieldQuery) int {
	t.Helper()
	total := 0
	for _, page := range parityPages {
		got, err1 := e.SearchFieldsContext(context.Background(), fq, page)
		want, err2 := refSearchFields(e, fq, page)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s fields %+v page=%d: %v / %v", label, fq, page, err1, err2)
		}
		diffPages(t, fmt.Sprintf("%s fields %+v page=%d", label, fq, page), got, want)
		if page == 1 {
			total = got.Total
		}
	}
	return total
}

// insertPhraseDocs adds 25 documents in which the shape queries' phrases
// occur (the generated corpus is unordered vocabulary: a two-word phrase
// hardly ever does), with counts that vary so the scores do.
func insertPhraseDocs(t *testing.T, c *docstore.Collection) {
	t.Helper()
	for i := 0; i < 25; i++ {
		title := fmt.Sprintf("Intensive care outcomes of the cohort %d", i)
		if i%2 == 0 {
			title = "Vaccine trial: " + title
		}
		abstract := "Measured with the standard assay among patients."
		for j := 0; j <= i%3; j++ {
			abstract = "Viral load in the intensive care unit of the hospital. " + abstract
		}
		if _, err := c.Insert(pub(fmt.Sprintf("phr%02d", i), title, abstract,
			"Body text about masks and the viral load of the patients in intensive care.")); err != nil {
			t.Fatal(err)
		}
	}
	// and 10 in which the phrases' words co-occur without being adjacent —
	// candidates only through a bare term, which are ranked unread
	for i := 0; i < 10; i++ {
		abstract := "Viral antigen load among patients; the load of viral assays."
		if i%2 == 0 {
			abstract += " Care was intensive."
		}
		if _, err := c.Insert(pub(fmt.Sprintf("sct%02d", i),
			fmt.Sprintf("Masks, masks: vaccine care in intensive settings, with masks %d", i), abstract,
			"Immunization outcomes and masks: load, then viral; antiviral loading doses.")); err != nil {
			t.Fatal(err)
		}
	}
}

// shapeQueries are the shapes that read candidates — a quoted phrase, a
// phrase beside a bare term (both read only those in which the words are
// adjacent), a phrase of stopwords only (no index candidates: an id scan)
// — plus a synonym-bearing multi-term and a zero-hit query.
var shapeQueries = []string{
	`"intensive care"`,
	`vaccine "viral load"`,
	`"of the"`,
	"immunization pediatric",
	"nosuchword",
	// beside a term that admits documents holding the phrase's words apart;
	// under NoSynonyms "immunization" admits some through a synonym alone
	`"viral load" masks`,
	`immunization "intensive care"`,
	`"care intensive" "load viral" outcomes`,
}

// shapeFieldQueries put a phrase in the fields engine, alone and beside
// a bare-term field.
var shapeFieldQueries = []FieldQuery{
	{Abstract: `"viral load"`},
	{Title: "vaccine", Abstract: `"of the"`},
	{Title: `"intensive care"`, Abstract: "patients"},
	{Title: "vaccine", Abstract: `"viral load" patients`},
}

// TestTopKPipelineParityRandomized: over randomized corpora and query
// mixes — single terms, multi-term, synonym-bearing, and every shape
// that reads documents — each engine returns pages byte-identical to the
// naive oracle's, on pages 1–3 and past the end.
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
		// so a synonym-only recall difference would surface
		for i := 0; i < 10; i++ {
			if _, err := c.Insert(pub(fmt.Sprintf("syn%02d", i),
				"Inoculation schedules in pediatric cohorts",
				"Coronavirus immunization outcomes after inoculation.",
				"Body text about sars-cov-2 and immunization drives.")); err != nil {
				t.Fatal(err)
			}
		}
		insertPhraseDocs(t, c)
		e, reg := parityEngine(t, c)
		label := fmt.Sprintf("seed=%d", seed)

		for i := 0; i < 12; i++ {
			n := 1 + rng.Intn(3)
			q := ""
			for j := 0; j < n; j++ {
				if j > 0 {
					q += " "
				}
				q += words[rng.Intn(len(words))]
			}
			checkAll(t, e, label, q)
		}
		if got := reg.Counter("candidate_read_queries").Value(); got != 0 {
			t.Fatalf("%s: %d bare-term queries read their candidates", label, got)
		}
		for _, q := range shapeQueries[:3] {
			if checkAll(t, e, label, q) == 0 {
				t.Fatalf("%s: phrase query %s matched nothing — the comparison is vacuous", label, q)
			}
		}
		for _, q := range shapeQueries[3:] {
			checkAll(t, e, label, q)
		}
		if got := reg.Counter("candidate_read_queries").Value(); got == 0 {
			t.Fatalf("%s: no phrase query read its candidates", label)
		}

		// fields engine: random per-field combos, then the phrase shapes
		for i := 0; i < 6; i++ {
			fq := FieldQuery{Title: words[rng.Intn(len(words))]}
			if rng.Intn(2) == 0 {
				fq.Abstract = words[rng.Intn(len(words))]
			}
			if rng.Intn(3) == 0 {
				fq.Caption = words[rng.Intn(len(words))]
			}
			checkFields(t, e, label, fq)
		}
		for _, fq := range shapeFieldQueries {
			if checkFields(t, e, label, fq) == 0 {
				t.Fatalf("%s: fields query %+v matched nothing — the comparison is vacuous", label, fq)
			}
		}
	}
}

// TestTopKPipelineParityAblations: parity with the oracle holds under
// every ranking-ablation option — which exercise the bound construction
// (FlatFields/NoIDF change the per-term maxima, NoSynonyms drops
// expansion slots and narrows the match predicate, NoProximity/
// NoCoverage drop bound components) — for every shape.
func TestTopKPipelineParityAblations(t *testing.T) {
	s := docstore.Open(docstore.WithShards(3))
	c := s.Collection("pubs")
	for _, p := range cord19.NewGenerator(99).Corpus(150) {
		if _, err := c.Insert(p.Doc()); err != nil {
			t.Fatal(err)
		}
	}
	insertPhraseDocs(t, c)
	opts := []RankOptions{
		{},
		{NoSynonyms: true},
		{FlatFields: true},
		{NoIDF: true},
		{NoProximity: true, NoCoverage: true},
		{NoSynonyms: true, FlatFields: true, NoIDF: true, NoProximity: true, NoCoverage: true},
	}
	queries := append([]string{"vaccine", "masks transmission", "fever dose outcomes", "immunization"}, shapeQueries...)
	for _, o := range opts {
		e, _ := parityEngine(t, c)
		e.SetRankOptions(o)
		label := fmt.Sprintf("opts=%+v", o)
		for _, q := range queries {
			checkAll(t, e, label, q)
		}
		for _, fq := range shapeFieldQueries {
			checkFields(t, e, label, fq)
		}
	}
}

// hookDocs runs between once, ahead of the first GetMany — on a
// bare-term query that is the winner fetch, so between lands after
// ranking and before materialization.
type hookDocs struct {
	docstore.Docs
	once    sync.Once
	between func()
}

func (h *hookDocs) GetMany(ctx context.Context, ids []string) ([]jsondoc.Doc, []int, error) {
	h.once.Do(h.between)
	return h.Docs.GetMany(ctx, ids)
}

// TestRankingDegradesLikeOracle: when documents cannot be read the page
// equals the oracle's over the surviving set, Partial and MissingShards
// included — whether the shard was dark before the query, went dark
// after the index-only ranking picked its winners, or a winner was
// deleted in that window.
func TestRankingDegradesLikeOracle(t *testing.T) {
	cases := []struct {
		name    string
		before  func(t *testing.T, c *darkDocs) // ahead of the query
		between func(t *testing.T, c *darkDocs) // ranking → winner fetch
		darkens bool                            // p00's shard, else p00 is deleted
	}{
		{name: "shard dark before the query", darkens: true,
			before: func(t *testing.T, c *darkDocs) {
				darkenShard(c)
				for i := 0; c.AllShardsServing(); i++ {
					if i == 100 {
						t.Fatal("breakers never opened on the dark shard")
					}
					c.Get("p00")
				}
			}},
		{name: "shard dark between ranking and winner fetch", darkens: true,
			between: func(t *testing.T, c *darkDocs) { darkenShard(c) }},
		{name: "winner deleted between ranking and fetch",
			between: func(t *testing.T, c *darkDocs) {
				if err := c.Delete("p00"); err != nil {
					t.Error(err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c, _ := partialFixture(t)
			h := &hookDocs{Docs: c, between: func() {}}
			if tc.between != nil {
				h.between = func() { tc.between(t, c) }
			}
			e, reg := parityEngine(t, h)
			if tc.before != nil {
				tc.before(t, c)
			}
			// every seeded doc scores the same, so p00 leads page 1
			got, err := e.SearchAllContext(context.Background(), "covid", 1)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := refSearch(e, e.allPlan, "covid", 1)
			diffPages(t, tc.name, got, want)
			total := 39
			if tc.darkens {
				total = 40
				for i := 0; i < 40; i++ {
					if c.ShardOfID(fmt.Sprintf("p%02d", i)) == c.ShardOfID("p00") {
						total--
					}
				}
			}
			if got.Partial != tc.darkens || got.Total != total || len(got.Results) != PerPage {
				t.Fatalf("partial=%v total=%d results=%d, want %v %d %d",
					got.Partial, got.Total, len(got.Results), tc.darkens, total, PerPage)
			}
			if n := reg.Counter("candidate_read_queries").Value(); n != 1 {
				t.Fatalf("candidate_read_queries = %d, want 1", n)
			}
		})
	}
}

// TestTopKPruningActuallyPrunes: a corpus engineered so docs matching
// only a weak term cannot displace full-coverage title matches must
// trip the max-score bound — and stay page-identical to the oracle —
// without reading a single candidate document.
func TestTopKPruningActuallyPrunes(t *testing.T) {
	s := docstore.Open(docstore.WithShards(2))
	c := s.Collection("pubs")
	// 25 strong docs: "masks" in the title (field weight 3) — enough to
	// fill the k=10 heap for page 1
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
	e, reg := parityEngine(t, c)
	pg, err := e.SearchAllContext(context.Background(), "masks zebra", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refSearch(e, e.allPlan, "masks zebra", 1)
	diffPages(t, "pruning corpus", pg, want)
	if pg.Total != 125 {
		t.Fatalf("Total = %d, want 125", pg.Total)
	}
	for _, r := range pg.Results {
		if len(r.DocID) < 6 || r.DocID[:6] != "strong" {
			t.Fatalf("weak doc %s outranked a full-coverage title match", r.DocID)
		}
	}
	if got := reg.Counter("topk_pruned_docs").Value(); got == 0 {
		t.Fatal("bound never pruned on a corpus built to trigger pruning")
	}
	// the gate against an accidental full read of a bare-term query
	if got := reg.Counter("candidate_read_queries").Value(); got != 0 {
		t.Fatalf("candidate_read_queries = %d, want 0", got)
	}
}
