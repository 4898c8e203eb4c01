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
// was tokenized once per term (see CHANGES.md, PR 12).
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
	if ceiling := 27220.0 / 4; perPage > ceiling {
		t.Errorf("cold page allocates %.0f times, ceiling %.0f", perPage, ceiling)
	}
	t.Logf("cold page: %.0f allocs", perPage)
}
