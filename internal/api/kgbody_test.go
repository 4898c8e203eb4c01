package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"covidkg/internal/kg"
	"covidkg/internal/kgquery"
)

// The KG handlers append their bodies from per-node encodings. These
// tests hold every body to json.Marshal of the payload map it encodes,
// plus the newline writeJSON adds.

// serveBody answers one request without a testing.T, so that other
// goroutines than the test's own may call it.
func serveBody(s *Server, method, path, body string) (int, []byte) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func marshalLine(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// refNodeBody marshals the node resource's payload map.
func refNodeBody(t *testing.T, snap *kg.Snapshot, id string, expand bool, page, size int) []byte {
	t.Helper()
	i, _ := snap.Index(id)
	var path []*kg.Node
	for at := i; at >= 0; at = snap.Dense(at).Parent {
		path = append(path, snap.At(at))
	}
	slices.Reverse(path)
	payload := map[string]any{"node": snap.At(i), "path": path}
	if expand {
		var kids []*kg.Node
		for _, c := range snap.Dense(i).Children {
			kids = append(kids, snap.At(c))
		}
		payload["children"] = paginateSlice(kids, page, size)
	}
	return marshalLine(t, payload)
}

// refQueryBody marshals /kg/query's payload map for one Result.
func refQueryBody(t *testing.T, plan *kgquery.Plan, res *kgquery.Result, page, size int) []byte {
	t.Helper()
	paths := res.Paths
	if paths == nil {
		paths = []kgquery.Path{}
	}
	return marshalLine(t, map[string]any{
		"paths":      paths,
		"total":      res.Total,
		"page_num":   page,
		"per_page":   size,
		"num_pages":  max((res.Total+size-1)/size, 1),
		"expansions": res.Expansions,
		"truncated":  res.Truncated,
		"plan": map[string]any{
			"entry":            plan.Entry.String(),
			"reversed":         plan.Reversed,
			"entry_candidates": res.EntryCandidates,
		},
	})
}

// refHypothesesBody marshals /kg/hypotheses' payload map for one Result.
func refHypothesesBody(t *testing.T, req kgHypothesesRequest, res *kgquery.Result) []byte {
	t.Helper()
	return marshalLine(t, map[string]any{
		"from":       req.From,
		"to":         req.To,
		"max_hops":   req.MaxHops,
		"paths":      res.Paths,
		"total":      res.Total,
		"expansions": res.Expansions,
		"truncated":  res.Truncated,
	})
}

// kgCase is one request and the body it must answer.
type kgCase struct {
	method, path, body string
	want               []byte
}

// nodeCases reads every node of the graph, bare and with its children
// at every page and one past the end, at two page sizes.
func nodeCases(t *testing.T, snap *kg.Snapshot) []kgCase {
	var cases []kgCase
	for _, id := range snap.IDs() {
		p := "/api/v1/kg/nodes/" + id
		cases = append(cases, kgCase{"GET", p, "", refNodeBody(t, snap, id, false, 0, 0)})
		i, _ := snap.Index(id)
		for _, size := range []int{kgDefaultPageSize, 7} {
			pages := max((len(snap.Dense(i).Children)+size-1)/size, 1)
			for page := 1; page <= pages+1; page++ {
				q := fmt.Sprintf("%s?expand=children&page=%d&page_size=%d", p, page, size)
				cases = append(cases, kgCase{"GET", q, "", refNodeBody(t, snap, id, true, page, size)})
			}
		}
	}
	return cases
}

// queryCases binds the repo benchmark's six kg_browse templates, plus
// an id-entry template, to bindings drawn from the graph with a fixed
// seed, and asks for pages 1, 2 and the last of each.
func queryCases(t *testing.T, snap *kg.Snapshot, bindings int) []kgCase {
	rng := rand.New(rand.NewSource(1))
	var parents, inner []*kg.Node
	for _, id := range snap.IDs() {
		n, _ := snap.Node(id)
		if len(n.Children) > 0 && strings.TrimSpace(n.Label) != "" {
			parents = append(parents, n)
		}
		if n.Parent != "" {
			inner = append(inner, n)
		}
	}
	sources := []string{kg.SourceSeed, kg.SourceFusion, kg.SourceExpert}
	templates := []struct {
		text string
		bind func() map[string]string
	}{
		{`(norm=$a)->()`, func() map[string]string { return map[string]string{"a": parents[rng.Intn(len(parents))].Label} }},
		{`(norm=$a)-{1,2}->()`, func() map[string]string { return map[string]string{"a": parents[rng.Intn(len(parents))].Label} }},
		{`(norm=$a)-{1,3}->()`, func() map[string]string { return map[string]string{"a": parents[rng.Intn(len(parents))].Label} }},
		{`()-{1,2}->(norm=$a)`, func() map[string]string { return map[string]string{"a": inner[rng.Intn(len(inner))].Label} }},
		{`(label~$a)->()`, func() map[string]string {
			return map[string]string{"a": strings.ToLower(strings.Fields(parents[rng.Intn(len(parents))].Label)[0])}
		}},
		{`(source=$a)-{1,2}->(source=$b)`, func() map[string]string {
			return map[string]string{"a": sources[rng.Intn(len(sources))], "b": sources[rng.Intn(len(sources))]}
		}},
		{`(id=$a)-{1,2}-()`, func() map[string]string { return map[string]string{"a": inner[rng.Intn(len(inner))].ID} }},
	}
	var cases []kgCase
	for _, tc := range templates {
		for k := 0; k < bindings; k++ {
			params := tc.bind()
			q, err := kgquery.Parse(tc.text, params)
			if err != nil {
				t.Fatal(err)
			}
			plan := kgquery.Compile(q, snap)
			body := func(page int) string {
				b, _ := json.Marshal(map[string]any{"query": tc.text, "params": params, "page": page, "page_size": kgDefaultPageSize})
				return string(b)
			}
			page := func(n int) kgCase {
				res, err := plan.ExecuteWindow(context.Background(), snap, kgquery.Options{Limit: kgQueryResultCap},
					(n-1)*kgDefaultPageSize, kgDefaultPageSize)
				if err != nil {
					t.Fatal(err)
				}
				return kgCase{"POST", "/api/v1/kg/query", body(n), refQueryBody(t, plan, res, n, kgDefaultPageSize)}
			}
			first := page(1)
			res, _ := plan.Execute(context.Background(), snap, kgquery.Options{Limit: kgQueryResultCap})
			cases = append(cases, first, page(2), page(max((res.Total+kgDefaultPageSize-1)/kgDefaultPageSize, 1)))
		}
	}
	return cases
}

// hypothesesCases asks for paths between seeded pairs of node labels,
// some of them with characters encoding/json escapes, including pairs
// with no path within the hops.
func hypothesesCases(t *testing.T, snap *kg.Snapshot, n int) []kgCase {
	rng := rand.New(rand.NewSource(2))
	ids := snap.IDs()
	label := func() string {
		l, _ := snap.Node(ids[rng.Intn(len(ids))])
		if rng.Intn(4) == 0 {
			return l.Label + ` <"&">`
		}
		return l.Label
	}
	var cases []kgCase
	for k := 0; k < n; k++ {
		req := kgHypothesesRequest{From: label(), To: label(), MaxHops: rng.Intn(7), Limit: rng.Intn(30)}
		limit := req.Limit
		if limit < 1 {
			limit = kgDefaultPageSize
		}
		limit = min(limit, kgHypothesesCap)
		res, err := kgquery.Hypotheses(context.Background(), snap, req.From, req.To, req.MaxHops, limit,
			kgquery.Options{Limit: kgquery.MaxLimit})
		if err != nil {
			continue // an unknown concept answers the 404 envelope writeJSON encodes
		}
		body, _ := json.Marshal(req)
		cases = append(cases, kgCase{"POST", "/api/v1/kg/hypotheses", string(body), refHypothesesBody(t, req, res)})
	}
	linked := 0
	for _, c := range cases {
		if bytes.Contains(c.want, []byte(`"nodes"`)) {
			linked++
		}
	}
	if len(cases) < n/2 || linked == 0 || linked == len(cases) {
		t.Fatalf("%d of %d hypothesis pairs resolved, %d of them linked: want half resolved, some linked and some not",
			len(cases), n, linked)
	}
	return cases
}

func checkCases(t *testing.T, s *Server, cases []kgCase) {
	t.Helper()
	for _, c := range cases {
		code, got := serveBody(s, c.method, c.path, c.body)
		if code != http.StatusOK || !bytes.Equal(got, c.want) {
			t.Fatalf("%s %s %s: status %d\n got  %s\n want %s", c.method, c.path, c.body, code, got, c.want)
		}
	}
}

// TestKGBodiesMatchMarshal: for every node of the benchmark corpus's
// graph, and for seeded bindings of every kg_browse template and of
// /kg/hypotheses, the appended body is the marshalled map byte for byte.
func TestKGBodiesMatchMarshal(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the 500-publication corpus")
	}
	s := benchServer(t)
	snap := s.sys.Graph.Snapshot()
	t.Run("nodes", func(t *testing.T) { checkCases(t, s, nodeCases(t, snap)) })
	t.Run("query", func(t *testing.T) { checkCases(t, s, queryCases(t, snap, 50)) })
	t.Run("hypotheses", func(t *testing.T) { checkCases(t, s, hypothesesCases(t, snap, 100)) })
	if s.sys.Graph.Snapshot() != snap {
		t.Fatal("the graph changed under the test")
	}
}

// TestKGBodiesConcurrent: eight goroutines read nodes and run queries on
// one snapshot, whose node encodings they build between them on first
// use, each in its own order, and every body is the serial answer.
func TestKGBodiesConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the 500-publication corpus")
	}
	s := benchServer(t)
	snap := s.sys.Graph.Snapshot()
	nodes := nodeCases(t, snap)
	cases := append(queryCases(t, snap, 4), hypothesesCases(t, snap, 20)...)
	for k := 0; k < len(nodes); k += 7 {
		cases = append(cases, nodes[k])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			for _, k := range order {
				c := cases[k]
				if code, got := serveBody(s, c.method, c.path, c.body); code != http.StatusOK || !bytes.Equal(got, c.want) {
					t.Errorf("%s %s %s: status %d, body differs from the serial answer", c.method, c.path, c.body, code)
					return
				}
			}
		}(rand.New(rand.NewSource(int64(g))).Perm(len(cases)))
	}
	wg.Wait()
	if s.sys.Graph.Snapshot() != snap {
		t.Fatal("the graph changed under the test")
	}
}

// FuzzAppendFloat holds appendFloat to json.Marshal(float64) over every
// finite bit pattern, appended after a prefix it must leave alone.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 0.85, 0.97 * 0.85, 1e-6, 9.99e-7, 1e-7, 1e21, 1e20, -3.5e-300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1.0 / 3} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip("encoding/json refuses non-finite numbers")
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat([]byte(`"x":`), v); string(got) != `"x":`+string(want) {
			t.Fatalf("appendFloat(%v) = %s, json.Marshal = %s", v, got[4:], want)
		}
	})
}
