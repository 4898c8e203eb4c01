package search

import (
	"context"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/textproc"
)

// benchBody is a real generated body_text, the longest field a snippet
// scans.
func benchBody() string { return cord19.NewGenerator(42).Corpus(1)[0].BodyText }

var (
	sinkSnippet Snippet
	sinkBool    bool
)

func BenchmarkMakeSnippet(b *testing.B) {
	text := benchBody()
	hl := textproc.CompileTerms(textproc.ParseQuery("transmission ventilators exposure"), false)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSnippet, sinkBool = makeSnippet(FieldBody, text, hl)
	}
}

// BenchmarkVerifyPredicate is the fallback's $match over one document
// that does not match, so no early exit shortens the scan of all six
// fields.
func BenchmarkVerifyPredicate(b *testing.B) {
	d := cord19.NewGenerator(42).Corpus(1)[0].Doc()
	vm := textproc.CompileTerms(textproc.ParseQuery(`"no such phrase" xylophone zeppelin`), true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = anyTermInFields(d, vm, allFields...)
	}
}

// TestMatchAllocationCeilings pins the allocation budget of the
// query-time matching kernel: a snippet costs its excerpt and its
// highlight slice, a text without a match costs nothing, and a cold page
// stays a fraction of the ~21.6 K allocations it took when every text
// was tokenized once per term (PR 12) and of the 4.5 K it took when each
// candidate's positions were gathered into maps per feature (PR 16; see
// CHANGES.md).
func TestMatchAllocationCeilings(t *testing.T) {
	text := benchBody()
	hit := textproc.CompileTerms(textproc.ParseQuery("transmission ventilators exposure"), false)
	if _, ok := makeSnippet(FieldBody, text, hit); !ok {
		t.Fatal("benchmark terms do not match the benchmark text")
	}
	if n := testing.AllocsPerRun(50, func() { sinkSnippet, sinkBool = makeSnippet(FieldBody, text, hit) }); n > 4 {
		t.Errorf("makeSnippet allocates %.0f times for a snippet, ceiling 4", n)
	}
	miss := textproc.CompileTerms(textproc.ParseQuery(`xylophone zeppelin "no such phrase"`), false)
	if n := testing.AllocsPerRun(50, func() { sinkSnippet, sinkBool = makeSnippet(FieldBody, text, miss) }); n != 0 || sinkBool {
		t.Errorf("makeSnippet allocates %.0f times (ok=%v) without a match, want 0", n, sinkBool)
	}

	e := coldPageEngine(t)
	qs := coldPageQueries()
	ctx := context.Background()
	i := 0
	perPage := testing.AllocsPerRun(len(qs), func() {
		pg, err := qs[i%len(qs)](ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		sinkPage = pg
		i++
	})
	const ceiling = 622.0 // measured 541, + 15 %
	if perPage > ceiling {
		t.Errorf("cold page allocates %.0f times, ceiling %.0f", perPage, ceiling)
	}
	t.Logf("cold page: %.0f allocs, ceiling %.0f", perPage, ceiling)

	// Ranking from the cursor: positioning it on a candidate, bounding it
	// and scoring it allocate nothing, and resolving the candidates costs
	// the same few allocations (the cursor's state and the id list)
	// whether they are a handful or most of the corpus.
	terms, err := queryOrError("vaccine fever transmission")
	if err != nil {
		t.Fatal(err)
	}
	q := e.allPlan(terms)
	if len(q.candidates) < 300 {
		t.Fatalf("only %d candidates", len(q.candidates))
	}
	var sinkScore float64
	if n := testing.AllocsPerRun(5, func() {
		for _, id := range q.candidates {
			q.rank.cur.Seek(id)
			sinkScore += q.rank.bound() + q.rank.scoreHere(nil).Total
		}
	}); n != 0 {
		t.Errorf("seeking and scoring %d index-only candidates allocates %.0f times, want 0", len(q.candidates), n)
	}
	// two one-name queries (neither word has synonyms)
	var plans [2]plan
	var allocs [2]float64
	for i, word := range []string{"seroconversion", "patients"} {
		ts, err := queryOrError(word)
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(20, func() { plans[i] = e.allPlan(ts) })
	}
	if len(plans[0].candidates)*3 > len(plans[1].candidates) || allocs[0] != allocs[1] || allocs[1] > 25 {
		t.Errorf("resolving %d candidates allocates %.0f times, %d candidates %.0f times: want one small constant",
			len(plans[0].candidates), allocs[0], len(plans[1].candidates), allocs[1])
	}
	t.Logf("plan: %.0f allocs for %d candidates, %.0f for %d", allocs[0], len(plans[0].candidates), allocs[1], len(plans[1].candidates))
}
