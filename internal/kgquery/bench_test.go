package kgquery

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"covidkg/internal/kg"
)

// servedGraph grows a graph shaped like the one covidkg-server builds
// from its 500-publication corpus: the 20-node expert seed, then fusion
// nodes to 860 in all, most of them leaves under some thirty hubs of
// 15–45 children nested up to nine deep; ≈ 5.5 K paper references over
// ≈ 500 publications, hubs citing 60–140 each.
func servedGraph() *kg.Graph {
	r := rand.New(rand.NewSource(1))
	words := []string{"Dose", "Fever", "Cough", "Age", "Mortality", "Titer", "Onset", "Saturation", "Stay", "Ratio", "Load", "Sex"}
	g := kg.SeedCOVID(nil)
	papers := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("pub-%04d", r.Intn(503))
		}
		return out
	}
	hubs := append(g.FindByNorm("Vaccines"), g.FindByNorm("mRNA vaccines")...)
	hubs = append(hubs, g.FindByNorm("Severity")...)
	hubs = append(hubs, g.FindByNorm("Treatment")...)
	for _, id := range hubs {
		if err := g.AddPapers(id, papers(90)...); err != nil {
			panic(err)
		}
	}
	for i := 0; g.Size() < 860; i++ {
		// from 10: NormalizeTerm drops one-letter words, so "Dose 7"
		// and "Dose 8" under one parent would fuse
		label := fmt.Sprintf("%s %d", words[i%len(words)], i+10)
		cited := 1 + r.Intn(6)
		hub := len(hubs) < 30 && r.Intn(25) == 0
		if hub {
			cited = 60 + r.Intn(80)
		}
		n, err := g.AddNode(hubs[r.Intn(len(hubs))], label, kg.SourceFusion, papers(cited)...)
		if err != nil {
			panic(err)
		}
		if hub {
			hubs = append(hubs, n.ID)
		}
	}
	return g
}

// pageQueries are the repo benchmark's six kg_browse templates, bound
// the way it binds them.
var pageQueries = []struct {
	name, text string
	params     map[string]string
}{
	{"fwd1", `(norm=$a)->()`, map[string]string{"a": "Vaccines"}},
	{"fwd2", `(norm=$a)-{1,2}->()`, map[string]string{"a": "Vaccines"}},
	{"fwd3", `(norm=$a)-{1,3}->()`, map[string]string{"a": "mRNA vaccines"}},
	{"reversed", `()-{1,2}->(norm=$a)`, map[string]string{"a": "Saturation 17"}},
	{"label_scan", `(label~$a)->()`, map[string]string{"a": "vaccine"}},
	{"source_source", `(source=$a)-{1,2}->(source=$b)`, map[string]string{"a": "seed", "b": "fusion"}},
}

// queryPage is what POST /api/v1/kg/query does per request between
// decoding the body and encoding the response: parse, compile, execute
// for page 1 of 20 under the handler's cap.
func queryPage(tb testing.TB, snap *kg.Snapshot, text string, params map[string]string) *Result {
	q, err := Parse(text, params)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := Compile(q, snap).ExecuteWindow(context.Background(), snap, Options{Limit: 1000}, 0, 20)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

var pageSink *Result

func BenchmarkQueryPage(b *testing.B) {
	snap := servedGraph().Snapshot()
	for _, pq := range pageQueries {
		b.Run(pq.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pageSink = queryPage(b, snap, pq.text, pq.params)
			}
			b.ReportMetric(float64(pageSink.Total), "matched")
		})
	}
}

// TestQueryPageAllocationCeiling holds a page's allocations to what
// they measured when the executor stopped building unseen paths
// (+15 %), and — the point of it — shows they do not follow the number
// of paths matched: what a match costs is a record and an id run in two
// arenas that double, so twenty times the matches may add a handful of
// regrowths, never an allocation each.
func TestQueryPageAllocationCeiling(t *testing.T) {
	snap := servedGraph().Snapshot()
	// measured 36 / 40 / 46 / 44 / 27 / 39, parse and compile included
	ceilings := map[string]float64{
		"fwd1": 41, "fwd2": 46, "fwd3": 52, "reversed": 50, "label_scan": 31, "source_source": 44,
	}
	allocs := map[string]float64{}
	matched := map[string]int{}
	for _, pq := range pageQueries {
		matched[pq.name] = queryPage(t, snap, pq.text, pq.params).Total
		allocs[pq.name] = testing.AllocsPerRun(20, func() { pageSink = queryPage(t, snap, pq.text, pq.params) })
		if allocs[pq.name] > ceilings[pq.name] {
			t.Errorf("%s: %.0f allocs per page over %d matched paths, ceiling %.0f",
				pq.name, allocs[pq.name], matched[pq.name], ceilings[pq.name])
		}
	}
	few, many := "fwd1", "source_source"
	if matched[few] > 60 || matched[many] < 600 {
		t.Fatalf("graph drifted: %s matches %d paths, %s %d; want ≤ 60 and ≥ 600",
			few, matched[few], many, matched[many])
	}
	if extra := allocs[many] - allocs[few]; extra > 16 {
		t.Errorf("%d matches cost %.0f allocations more than %d matches; a match must not allocate",
			matched[many], extra, matched[few])
	}
}
