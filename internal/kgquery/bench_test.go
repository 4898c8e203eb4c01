package kgquery

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
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

// citeMore makes every node of g cite factor times as many papers,
// the new ones drawn from factor-1 times as many publications as the
// graph cited, leaving its shape and so every match alone.
func citeMore(g *kg.Graph, factor int) {
	r := rand.New(rand.NewSource(2))
	snap := g.Snapshot()
	for _, id := range snap.IDs() {
		n, _ := snap.Node(id)
		extra := make([]string, (factor-1)*len(n.Papers))
		for k := range extra {
			extra[k] = fmt.Sprintf("more-%06d", r.Intn((factor-1)*snap.NumPapers()))
		}
		if err := g.AddPapers(id, extra...); err != nil {
			panic(err)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: what one call of
// f allocates on average, after a collection and a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// raceEnabled is set in race builds (race_test.go), where only the
// match counts below are checked.
var raceEnabled bool

// TestQueryPageAllocationCeiling holds a page's allocations and bytes
// to what they measured once the executor took its scratch from a pool
// (+15 %), and — the point of it — shows they follow neither the number
// of paths matched nor the size of the corpus: what a match costs is a
// record and an id run in two pooled arenas that double, so twenty
// times the matches may add a handful of regrowths, never an allocation
// each, and a graph citing twenty times the papers costs a page not one
// byte more.
func TestQueryPageAllocationCeiling(t *testing.T) {
	g := servedGraph()
	snap := g.Snapshot()
	// measured 29 / 29 / 33 / 35 / 21 / 25 allocations and
	// 6008 / 6008 / 6248 / 2576 / 5864 / 7160 bytes, parse and compile
	// included
	ceilings := map[string]struct{ allocs, bytes float64 }{
		"fwd1": {33, 6910}, "fwd2": {33, 6910}, "fwd3": {38, 7190},
		"reversed": {40, 2970}, "label_scan": {24, 6750}, "source_source": {29, 8240},
	}
	allocs := map[string]float64{}
	bytes := map[string]float64{}
	matched := map[string]int{}
	for _, pq := range pageQueries {
		page := func() { pageSink = queryPage(t, snap, pq.text, pq.params) }
		matched[pq.name] = queryPage(t, snap, pq.text, pq.params).Total
		allocs[pq.name] = testing.AllocsPerRun(20, page)
		bytes[pq.name] = bytesPerRun(20, page)
		t.Logf("%s: %.0f allocs, %.0f bytes per page", pq.name, allocs[pq.name], bytes[pq.name])
		if c := ceilings[pq.name]; !raceEnabled && (allocs[pq.name] > c.allocs || bytes[pq.name] > c.bytes) {
			t.Errorf("%s: %.0f allocs and %.0f bytes per page over %d matched paths, ceilings %.0f and %.0f",
				pq.name, allocs[pq.name], bytes[pq.name], matched[pq.name], c.allocs, c.bytes)
		}
	}
	few, many := "fwd1", "source_source"
	if matched[few] > 60 || matched[many] < 600 {
		t.Fatalf("graph drifted: %s matches %d paths, %s %d; want ≤ 60 and ≥ 600",
			few, matched[few], many, matched[many])
	}
	if extra := allocs[many] - allocs[few]; !raceEnabled && extra > 16 {
		t.Errorf("%d matches cost %.0f allocations more than %d matches; a match must not allocate",
			matched[many], extra, matched[few])
	}

	citeMore(g, 20)
	wide := g.Snapshot()
	if wide.NumPapers() < 15*snap.NumPapers() {
		t.Fatalf("the wider graph cites %d papers, the served one %d; want 15 times as many",
			wide.NumPapers(), snap.NumPapers())
	}
	for _, pq := range pageQueries {
		if got := queryPage(t, wide, pq.text, pq.params).Total; got != matched[pq.name] {
			t.Fatalf("%s: citing more papers changed the match count from %d to %d", pq.name, matched[pq.name], got)
		}
		b := bytesPerRun(20, func() { pageSink = queryPage(t, wide, pq.text, pq.params) })
		t.Logf("%s: %.0f bytes per page citing %d papers", pq.name, b, wide.NumPapers())
		if !raceEnabled && b > bytes[pq.name] {
			t.Errorf("%s: %.0f bytes per page over %d papers, %.0f over %d; a page must not grow with the corpus",
				pq.name, b, wide.NumPapers(), bytes[pq.name], snap.NumPapers())
		}
	}
}
