package search

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
)

// coldPageEngine is a 500-publication engine with the query cache off —
// the corpus size and cache behaviour of the search_cold workload.
func coldPageEngine(tb testing.TB) *Engine {
	tb.Helper()
	c := docstore.Open(docstore.WithShards(4)).Collection("pubs")
	for _, p := range cord19.NewGenerator(42).Corpus(500) {
		if _, err := c.Insert(p.Doc()); err != nil {
			tb.Fatal(err)
		}
	}
	e := NewEngine(c)
	e.SetCacheLimits(0, 0)
	return e
}

// coldPageQueries are distinct 3-term queries over the topical
// vocabulary in search_cold's shape mix: of every 20, 12 multi-term
// engine=all, 3 quoted phrase + term, 3 engine=tables, 2 engine=fields.
func coldPageQueries() []func(context.Context, *Engine) (Page, error) {
	var vocab []string
	for _, t := range cord19.Topics {
		vocab = append(vocab, t.Terms...)
	}
	shapes := "aatapaafataapaatafapa" // a=all p=phrase t=tables f=fields
	var out []func(context.Context, *Engine) (Page, error)
	for i := 0; i < 200; i++ {
		w := [3]string{vocab[i%len(vocab)], vocab[(i*7+3)%len(vocab)], vocab[(i*13+5)%len(vocab)]}
		switch shapes[i%20] {
		case 'p':
			q := fmt.Sprintf("%q %s", w[0]+" "+w[1], w[2])
			out = append(out, func(ctx context.Context, e *Engine) (Page, error) { return e.SearchAllContext(ctx, q, 1) })
		case 't':
			q := strings.Join(w[:], " ")
			out = append(out, func(ctx context.Context, e *Engine) (Page, error) { return e.SearchTablesContext(ctx, q, 1) })
		case 'f':
			fq := FieldQuery{Title: w[0], Abstract: w[1] + " " + w[2]}
			out = append(out, func(ctx context.Context, e *Engine) (Page, error) { return e.SearchFieldsContext(ctx, fq, 1) })
		default:
			q := strings.Join(w[:], " ")
			out = append(out, func(ctx context.Context, e *Engine) (Page, error) { return e.SearchAllContext(ctx, q, 1) })
		}
	}
	return out
}

var sinkPage Page

// BenchmarkColdPage is one uncached results page in the search_cold
// shape mix, in process (no HTTP, no shard wire): the query-time text
// matching share of a cold page without the transport around it.
func BenchmarkColdPage(b *testing.B) {
	e := coldPageEngine(b)
	qs := coldPageQueries()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg, err := qs[i%len(qs)](ctx, e)
		if err != nil {
			b.Fatal(err)
		}
		sinkPage = pg
	}
}
