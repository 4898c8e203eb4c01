package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"covidkg/internal/textproc"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got, _ := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of an empty sample is supported")
	}
	if v, ok := percentile([]float64{7}, 0.5); v != 7 || !ok {
		t.Errorf("median of one sample = %v, %v; want 7, true", v, ok)
	}
}

// A percentile is reported only with at least ten samples beyond it:
// p95 needs 200 samples (rank 190, ten beyond), and 199 is one short.
func TestPercentileTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want bool
	}{{9, false}, {199, false}, {200, true}, {1000, true}} {
		if _, ok := percentile(make([]float64, tc.n), 0.95); ok != tc.want {
			t.Errorf("p95 of %d samples supported = %v, want %v", tc.n, ok, tc.want)
		}
	}
	_, p95, ok := p50p95([]float64{3, 1, 2})
	if ok || p95 != 3 {
		t.Errorf("p50p95 of 3 samples: p95 %v supported %v, want 3 false", p95, ok)
	}
}

func coldPaths(seed int64, n int) []string {
	g := newQueryGen(seed)
	out := make([]string, n)
	for i := range out {
		out[i] = g.next().op().path
	}
	return out
}

func TestQueryGenDeterministicPerSeed(t *testing.T) {
	a, b, c := coldPaths(7, 500), coldPaths(7, 500), coldPaths(8, 500)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("the same seed gave different query streams")
	}
	if strings.Join(a, "\n") == strings.Join(c, "\n") {
		t.Error("different seeds gave the same query stream")
	}
}

// search_cold must never hand the query cache a key it has seen: no
// query string repeats, and no two queries stem to the same term set.
func TestQueryGenNeverRepeats(t *testing.T) {
	g := newQueryGen(3)
	paths, stemSets := map[string]bool{}, map[string]bool{}
	shapes := map[opKind]int{}
	const draws = 10000
	for i := 0; i < draws; i++ {
		q := g.next()
		p := q.op().path
		if paths[p] {
			t.Fatalf("draw %d repeats %s", i, p)
		}
		paths[p] = true
		stems := []string{textproc.Stem(strings.ToLower(q.terms[0])), textproc.Stem(strings.ToLower(q.terms[1])), textproc.Stem(strings.ToLower(q.terms[2]))}
		sort.Strings(stems)
		if key := strings.Join(stems, " "); stemSets[key] {
			t.Fatalf("draw %d repeats the stemmed term set %q", i, key)
		} else {
			stemSets[key] = true
		}
		shapes[q.shape]++
	}
	// the mix is exact, not sampled
	for shape, want := range map[opKind]int{opSearchMulti: 6000, opSearchPhrase: 1500, opSearchTables: 1500, opSearchFields: 1000} {
		if shapes[shape] != want {
			t.Errorf("shape %d drawn %d times in %d, want %d", shape, shapes[shape], draws, want)
		}
	}
}

func TestHotGenDeterministicAndInsideSet(t *testing.T) {
	set := hotSet(5)
	if len(set) != hotSetSize {
		t.Fatalf("hot set holds %d queries, want %d", len(set), hotSetSize)
	}
	in := map[searchQuery]bool{}
	for _, q := range set {
		in[q] = true
	}
	a, b := newHotGen(set, 5), newHotGen(set, 5)
	for i := 0; i < 1000; i++ {
		qa, qb := a.next(), b.next()
		if qa != qb {
			t.Fatalf("draw %d differs under one seed", i)
		}
		if !in[qa] {
			t.Fatalf("draw %d is outside the hot set", i)
		}
	}
}

func TestIngestGenDeterministicPerSeed(t *testing.T) {
	bodies := func(seed int64) [][]byte {
		g := newIngestGen(seed)
		var out [][]byte
		for i := 0; i < 3; i++ {
			post, marker := g.next()
			if n := bytes.Count(post.body, []byte("\n")); n != ingestBatch {
				t.Fatalf("batch holds %d lines, want %d", n, ingestBatch)
			}
			if !strings.HasPrefix(marker.id, "bench-") || !bytes.Contains(post.body, []byte(`"_id":"`+marker.id+`"`)) {
				t.Fatalf("marker document %q is not a bench- document of its batch", marker.id)
			}
			token := markerToken(seed, i+1)
			if bytes.Count(post.body, []byte(token)) != 1 {
				t.Fatalf("batch %d does not hold its marker %q exactly once", i+1, token)
			}
			if words := textproc.Words(token); len(words) != 1 {
				t.Fatalf("marker %q tokenizes into %v", token, words)
			}
			out = append(out, post.body)
		}
		return out
	}
	a, b, c := bodies(11), bodies(11), bodies(12)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("batch %d differs byte for byte under one seed", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("batch %d is identical under two seeds", i)
		}
	}
}

func TestMarkerTokensDistinctAfterStemming(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 30; seed++ {
		for batch := 1; batch <= 100; batch++ {
			s := textproc.Stem(markerToken(seed, batch))
			if seen[s] {
				t.Fatalf("marker stem %q repeats (seed %d batch %d)", s, seed, batch)
			}
			seen[s] = true
		}
	}
}

var fixtureGraph = []kgNode{
	{ID: "n1", Label: "COVID-19", Norm: "covid-19", Children: []string{"n2", "n3"}, Source: "seed"},
	{ID: "n2", Label: "Vaccines", Norm: "vaccin", Parent: "n1", Children: []string{"n4"}, Source: "seed"},
	{ID: "n3", Label: "Side effects", Norm: "side effect", Parent: "n1", Source: "seed"},
	{ID: "n4", Label: "mRNA vaccines", Norm: "mrna vaccin", Parent: "n2", Source: "fusion"},
}

func TestKGGenDeterministicPerSeed(t *testing.T) {
	stream := func(seed int64) string {
		g, err := newKGGen(seed, fixtureGraph, []string{"p1", "p2", "p3"})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		kinds, templates := map[opKind]int{}, map[string]int{}
		for i := 0; i < 480; i++ {
			o := g.next()
			kinds[o.kind]++
			if o.kg != nil {
				templates[o.kg.template]++
			}
			b.WriteString(o.method + " " + o.path + " " + string(o.body) + "\n")
		}
		if kinds[opKGQuery] != 240 || kinds[opKGNode] != 120 || kinds[opPubGet] != 120 {
			t.Errorf("session mix %v is not 50/25/25", kinds)
		}
		for _, tpl := range kgTemplates {
			if templates[tpl.name] != 40 {
				t.Errorf("template %s used %d times in 240 queries, want 40", tpl.name, templates[tpl.name])
			}
		}
		return b.String()
	}
	if stream(1) != stream(1) {
		t.Error("the same seed gave different sessions")
	}
	if stream(1) == stream(2) {
		t.Error("different seeds gave the same session")
	}
	if _, err := newKGGen(1, nil, []string{"p1"}); err == nil {
		t.Error("an empty graph gave a generator")
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	ms := func(v float64) int64 { return int64(v * 1e6) }
	spans := []span{
		{ID: 1, Name: "http", StartNs: 0, EndNs: ms(10), Request: 1},
		{ID: 2, Name: "search.call", StartNs: ms(10), EndNs: ms(17), Parent: 1, Request: 1},
		{ID: 3, Name: "index.candidates", StartNs: ms(17), EndNs: ms(19), Parent: 2, Request: 1},
		{ID: 4, Name: "shardnet.get_many_page", StartNs: ms(19), EndNs: ms(22), Parent: 2, Request: 1},
		{ID: 5, Name: "api.encode", StartNs: ms(22), EndNs: ms(23), Parent: 1, Request: 1},
		// a replayed child that out-ran its parent clamps the parent at 0
		{ID: 6, Name: "http", StartNs: ms(30), EndNs: ms(31), Request: 2},
		{ID: 7, Name: "search.call", StartNs: ms(31), EndNs: ms(33), Parent: 6, Request: 2},
		// a probe belongs to no request and no share
		{ID: 8, Name: "shardnet.get", StartNs: ms(40), EndNs: ms(90)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 2, 2: 2, 3: 2, 4: 3, 5: 1, 6: 0, 7: 2, 8: 50} {
		if math.Abs(self[id]-want) > 1e-9 {
			t.Errorf("self time of span %d = %v ms, want %v", id, self[id], want)
		}
	}
	// roots 10+1, leaves 2+3+1+2
	if got, want := unattributedShare(spans), (11.0-8.0)/11.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("unattributed share = %v, want %v", got, want)
	}
	if got := byName(spans, "http"); len(got) != 2 || got[0] != 10 || got[1] != 1 {
		t.Errorf("byName(http) = %v, want [10 1]", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// comm holds spaces and parentheses; utime=1234 stime=566 ticks
	const stat = "4242 (covidkg (shard) 0) S 1 4242 4242 0 -1 4194560 2000 0 3 0 1234 566 0 0 20 0 9 0 5000 1000000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 18.0; cpu != want {
		t.Errorf("cpu seconds = %v, want %v", cpu, want)
	}
	for _, bad := range []string{"", "1 comm S 1", "1 (x) S 1 2"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) gave no error", bad)
		}
	}
	mb, err := parseVmHWM("Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n")
	if err != nil || mb != 200 {
		t.Errorf("VmHWM = %v MB, %v; want 200", mb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("a status without VmHWM gave no error")
	}
}

func TestChecksCatchViolations(t *testing.T) {
	if _, err := checkSearchPage([]byte(`{"Results":[{"DocID":"a","Score":2},{"DocID":"b","Score":2},{"DocID":"c","Score":1}],"Total":3}`)); err != nil {
		t.Errorf("an ordered page failed: %v", err)
	}
	if _, err := checkSearchPage([]byte(`{"Results":[{"DocID":"a","Score":1},{"DocID":"b","Score":2}],"Total":2}`)); err == nil {
		t.Error("a page in increasing score order passed")
	}
	eleven := `{"Results":[` + strings.Repeat(`{"DocID":"a","Score":1},`, 10) + `{"DocID":"a","Score":1}],"Total":11}`
	if _, err := checkSearchPage([]byte(eleven)); err == nil {
		t.Error("a page of 11 results passed")
	}
	if err := checkMarker([]byte(`{"Results":[{"DocID":"bench-1-000001","Score":1}],"Total":1}`), "bench-1-000001"); err != nil {
		t.Errorf("a correct marker page failed: %v", err)
	}
	if err := checkMarker([]byte(`{"Results":[],"Total":0}`), "bench-1-000001"); err == nil {
		t.Error("a marker search without its document passed")
	}

	exp := &kgExpect{template: "fwd2", min: 1, max: 2, startNorm: "vaccin"}
	ok := `{"paths":[{"nodes":[{"norm":"vaccin"},{"norm":"x"},{"norm":"y"}]}],"expansions":5,"truncated":true}`
	res, err := checkKGQuery([]byte(ok), exp)
	if err != nil || res.Expansions != 5 || !res.Truncated {
		t.Errorf("a conforming path failed or lost its counts: %v %+v", err, res)
	}
	tooLong := `{"paths":[{"nodes":[{"norm":"vaccin"},{"norm":"x"},{"norm":"y"},{"norm":"z"}]}]}`
	if _, err := checkKGQuery([]byte(tooLong), exp); err == nil {
		t.Error("a 3-hop path passed a 1..2 hop template")
	}
	wrongStart := `{"paths":[{"nodes":[{"norm":"mask"},{"norm":"x"}]}]}`
	if _, err := checkKGQuery([]byte(wrongStart), exp); err == nil {
		t.Error("a path from the wrong start node passed")
	}
	if err := checkPublication([]byte(`{"_id":"other"}`), "want"); err == nil {
		t.Error("a publication with another _id passed")
	}
	if err := checkIngestAck([]byte(`{"ingested":31,"failed":1}`)); err == nil {
		t.Error("a partly failed batch passed")
	}
}

// BENCHMARK.json is the contract the driver reads; the program prints
// from its own tables. The two must list the same metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []jm                    `json:"end_to_end"`
		PerLayer  []jm                    `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s[%d] %s: bound mismatch", kind, i, w.name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}
