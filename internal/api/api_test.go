package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/core"
	"covidkg/internal/kg"
	"covidkg/internal/metrics"
)

func testServer(t testing.TB) (*Server, *core.System) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.TrainTables = 40
	cfg.W2V.Epochs = 2
	cfg.VocabSize = 1000
	sys := core.NewSystem(cfg)
	g := cord19.NewGenerator(4)
	if err := sys.IngestPublications(g.Corpus(40)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TrainModels(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.BuildKG(); err != nil {
		t.Fatal(err)
	}
	return NewServer(sys), sys
}

func get(t *testing.T, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	ct := rec.Header().Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		_ = json.Unmarshal(rec.Body.Bytes(), &body)
	}
	return rec, body
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("health = %d %v", rec.Code, body)
	}
}

// TestReadyzInProcess: an in-process system lists its shard servers,
// each connected at its mem:shardN address, and is 200 ready.
func TestReadyzInProcess(t *testing.T) {
	s, _ := liteServer(t, Config{})
	rec, body := get(t, s, "/readyz")
	if rec.Code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v, want 200 ready", rec.Code, body)
	}
	shards, ok := body["shards"].([]any)
	if !ok || len(shards) != core.DefaultConfig().Shards {
		t.Fatalf("shards = %#v, want %d entries", body["shards"], core.DefaultConfig().Shards)
	}
	for i, sv := range shards {
		sh := sv.(map[string]any)
		if sh["state"] != "connected" || sh["addr"] != fmt.Sprintf("mem:shard%d", i) {
			t.Fatalf("shard %d = %v, want connected at mem:shard%d", i, sh, i)
		}
	}
	if mode, ok := body["mode"]; ok {
		t.Fatalf("in-process readyz carries mode %v", mode)
	}
}

func TestStats(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/api/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d", rec.Code)
	}
	if body["publications"].(float64) != 40 {
		t.Fatalf("pubs = %v", body["publications"])
	}
	if body["kg_nodes"].(float64) < 15 {
		t.Fatalf("kg_nodes = %v", body["kg_nodes"])
	}
}

func TestSearchEndpoints(t *testing.T) {
	s, _ := testServer(t)
	for _, path := range []string{
		"/api/v1/search?q=vaccine",
		"/api/v1/search?engine=all&q=vaccine",
		"/api/v1/search?engine=tables&q=vaccine&page=1",
		"/api/v1/search?engine=fields&title=vaccine",
	} {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %v", path, rec.Code, body)
		}
		if _, ok := body["Total"]; !ok {
			t.Fatalf("%s: missing Total: %v", path, body)
		}
	}
	// errors
	rec, _ := get(t, s, "/api/v1/search?engine=warp&q=x")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown engine = %d", rec.Code)
	}
	rec, _ = get(t, s, "/api/v1/search?q=")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty query = %d", rec.Code)
	}
}

func TestPublicationEndpoint(t *testing.T) {
	s, sys := testServer(t)
	id := sys.Pubs.IDs()[0]
	rec, body := get(t, s, "/api/v1/publications/"+id)
	if rec.Code != http.StatusOK || body["title"] == "" {
		t.Fatalf("pub = %d %v", rec.Code, body)
	}
	rec, _ = get(t, s, "/api/v1/publications/nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing pub = %d", rec.Code)
	}
}

func TestGraphEndpoints(t *testing.T) {
	s, sys := testServer(t)
	rec, body := get(t, s, "/api/v1/kg")
	if rec.Code != http.StatusOK || body["root"] == nil {
		t.Fatalf("kg = %d %v", rec.Code, body)
	}
	rec, _ = get(t, s, "/api/v1/kg/search?q=vaccines")
	if rec.Code != http.StatusOK {
		t.Fatalf("kg search = %d", rec.Code)
	}
	rec, _ = get(t, s, "/api/v1/kg/search?q=")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty kg search = %d", rec.Code)
	}
	root := sys.Graph.RootID()
	rec, body = get(t, s, "/api/v1/kg/nodes/"+root)
	if rec.Code != http.StatusOK || body["node"] == nil || body["path"] == nil {
		t.Fatalf("node = %d %v", rec.Code, body)
	}
	rec, body = get(t, s, "/api/v1/kg/nodes/"+root+"?expand=children")
	if rec.Code != http.StatusOK || body["children"] == nil {
		t.Fatalf("children = %d %v", rec.Code, body)
	}
	rec, _ = get(t, s, "/api/v1/kg/nodes/bogus")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("bogus node = %d", rec.Code)
	}
}

func TestReviewEndpoints(t *testing.T) {
	s, sys := testServer(t)
	res := sys.Fuser.Fuse(&kg.Subtree{
		Label: "Novel thing",
		Children: []*kg.Subtree{
			{Label: "Mid", Children: []*kg.Subtree{{Label: "Leaf"}}},
		},
	})
	rec, _ := get(t, s, "/api/v1/reviews")
	if rec.Code != http.StatusOK {
		t.Fatalf("reviews = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "Novel thing") {
		t.Fatalf("review body = %s", rec.Body.String())
	}

	post := func(path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		return w
	}
	// missing target
	if w := post("/api/v1/reviews/" + itoa(res.ReviewID) + "/approve"); w.Code != http.StatusBadRequest {
		t.Fatalf("no target = %d", w.Code)
	}
	// bad target
	if w := post("/api/v1/reviews/" + itoa(res.ReviewID) + "/approve?target=zzz"); w.Code != http.StatusNotFound {
		t.Fatalf("bad target = %d", w.Code)
	}
	// good approve
	if w := post("/api/v1/reviews/" + itoa(res.ReviewID) + "/approve?target=" + sys.Graph.RootID()); w.Code != http.StatusOK {
		t.Fatalf("approve = %d %s", w.Code, w.Body.String())
	}
	if hits, err := sys.Graph.SearchContext(context.Background(), "leaf"); err != nil || len(hits) == 0 {
		t.Fatalf("approved subtree missing: %v", err)
	}
	// reject flow
	res2 := sys.Fuser.Fuse(&kg.Subtree{Label: "Another", Children: []*kg.Subtree{
		{Label: "m", Children: []*kg.Subtree{{Label: "l"}}},
	}})
	if w := post("/api/v1/reviews/" + itoa(res2.ReviewID) + "/reject"); w.Code != http.StatusOK {
		t.Fatalf("reject = %d", w.Code)
	}
	if w := post("/api/v1/reviews/abc/reject"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad id = %d", w.Code)
	}
}

func TestModelEndpoints(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/api/v1/models")
	if rec.Code != http.StatusOK {
		t.Fatalf("models = %d", rec.Code)
	}
	names, _ := body["models"].([]any)
	if len(names) == 0 {
		t.Fatal("no models listed")
	}
	first := names[0].(string)
	rec, _ = get(t, s, "/api/v1/models/"+first)
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("model download = %d", rec.Code)
	}
	rec, _ = get(t, s, "/api/v1/models/none")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing model = %d", rec.Code)
	}
}

func TestIndexPage(t *testing.T) {
	s, _ := testServer(t)
	rec, _ := get(t, s, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("index = %d", rec.Code)
	}
	html := rec.Body.String()
	for _, want := range []string{"COVIDKG", "Knowledge Graph", "COVID-19"} {
		if !strings.Contains(html, want) {
			t.Fatalf("index missing %q", want)
		}
	}
	rec, _ = get(t, s, "/nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path = %d", rec.Code)
	}
}

func postJSON(t *testing.T, s *Server, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	return rec, out
}

func TestAggregateEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec, body := postJSON(t, s, "/api/v1/aggregate", `{
		"pipeline": [
			{"$match": {"title": {"$regex": "(?i)covid"}}},
			{"$project": {"title": 1}},
			{"$sort": {"title": 1}},
			{"$limit": 5}
		]
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("aggregate = %d: %v", rec.Code, body)
	}
	results, _ := body["results"].([]any)
	if len(results) == 0 || len(results) > 5 {
		t.Fatalf("results = %d", len(results))
	}
	first := results[0].(map[string]any)
	if first["title"] == nil || first["abstract"] != nil {
		t.Fatalf("projection wrong: %v", first)
	}
}

func TestAggregateGroupBy(t *testing.T) {
	s, _ := testServer(t)
	rec, body := postJSON(t, s, "/api/v1/aggregate", `{
		"pipeline": [{"$group": {"_id": "$topic", "n": {"$sum": 1}}}]
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("group = %d: %v", rec.Code, body)
	}
	results, _ := body["results"].([]any)
	total := 0.0
	for _, r := range results {
		total += r.(map[string]any)["n"].(float64)
	}
	if int(total) != 40 {
		t.Fatalf("group counts sum to %v, want 40", total)
	}
}

func TestAggregateErrors(t *testing.T) {
	s, _ := testServer(t)
	if rec, _ := postJSON(t, s, "/api/v1/aggregate", `{"pipeline": [{"$warp": 1}]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad stage = %d", rec.Code)
	}
	if rec, _ := postJSON(t, s, "/api/v1/aggregate", `not json`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body = %d", rec.Code)
	}
	if rec, _ := postJSON(t, s, "/api/v1/aggregate", `{"collection": "nope", "pipeline": []}`); rec.Code != http.StatusNotFound {
		t.Fatalf("missing collection = %d", rec.Code)
	}
}

func TestAggregateDefaultLimit(t *testing.T) {
	s, _ := testServer(t)
	rec, body := postJSON(t, s, "/api/v1/aggregate", `{"pipeline": []}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("empty pipeline = %d", rec.Code)
	}
	if n := body["n"].(float64); n != 40 { // 40 docs < default cap 100
		t.Fatalf("n = %v", n)
	}
}

// TestUnencodableResultIs500: a result encoding/json refuses (two 1e308
// summed to +Inf) is a 500 internal envelope carrying the request id,
// never a 200 status line over an empty body.
func TestUnencodableResultIs500(t *testing.T) {
	s, _ := testServer(t)
	if rec, out := postJSON(t, s, "/api/v1/publications", `[
		{"_id": "inf-1", "title": "a", "grp": "g", "big": 1e308},
		{"_id": "inf-2", "title": "b", "grp": "g", "big": 1e308}]`); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %v", rec.Code, out)
	}
	rec, out := postJSON(t, s, "/api/v1/aggregate", `{"pipeline": [
		{"$match": {"grp": "g"}},
		{"$group": {"_id": "$grp", "s": {"$sum": "$big"}}}]}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, body %q; want 500", rec.Code, rec.Body.String())
	}
	if out["code"] != "internal" || out["request_id"] == nil || out["request_id"] != rec.Header().Get("X-Request-ID") {
		t.Fatalf("envelope %v, X-Request-ID %q", out, rec.Header().Get("X-Request-ID"))
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
}

func TestIngestEndpoint(t *testing.T) {
	s, sys := testServer(t)
	before := sys.Pubs.Count()
	// enrich what is stored, so the ingest below enriches only itself
	if _, err := sys.BuildKG(); err != nil {
		t.Fatal(err)
	}
	body := `[{
		"_id": "web-new-1",
		"title": "Remdesivir outcomes in ICU cohorts",
		"abstract": "New evidence on antiviral therapy.",
		"body_text": "Trial details.",
		"journal": "Web Source",
		"publish_date": "2022-05-01",
		"tables": [{"caption": "Table 1: Drugs",
			"rows": [["Drug", "Outcome measure"], ["Remdesivir", "Recovery time"]],
			"header_rows": [0], "n_rows": 2, "n_cols": 2}]
	}]`
	rec, resp := postJSON(t, s, "/api/v1/publications", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %v", rec.Code, resp)
	}
	if resp["ingested"].(float64) != 1 || resp["tables"].(float64) != 1 {
		t.Fatalf("refresh stats: %v", resp)
	}
	if sys.Pubs.Count() != before+1 {
		t.Fatalf("count = %d", sys.Pubs.Count())
	}
	// immediately searchable
	rec, page := get(t, s, "/api/v1/search?q=remdesivir")
	if rec.Code != http.StatusOK || page["Total"].(float64) < 1 {
		t.Fatalf("new doc not searchable: %v", page)
	}
	// errors
	if rec, _ := postJSON(t, s, "/api/v1/publications", `[]`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty ingest = %d", rec.Code)
	}
	if rec, _ := postJSON(t, s, "/api/v1/publications", `{"not": "an array"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("non-array ingest = %d", rec.Code)
	}
	// duplicate id rejected
	if rec, _ := postJSON(t, s, "/api/v1/publications", body); rec.Code != http.StatusBadRequest {
		t.Fatalf("duplicate ingest = %d", rec.Code)
	}
}

func TestTableMatchesEndpoint(t *testing.T) {
	s, sys := testServer(t)
	// find a publication with a table and a cell term
	var id, term string
	for _, pid := range sys.Pubs.IDs() {
		d, _ := sys.Pubs.Get(pid)
		tables := d.GetArray("tables")
		if len(tables) == 0 {
			continue
		}
		td := tables[0].(map[string]any)
		rows, _ := td["rows"].([]any)
		if len(rows) == 0 {
			continue
		}
		cells, _ := rows[0].([]any)
		for _, cv := range cells {
			if sstr, ok := cv.(string); ok && len(sstr) > 3 {
				id, term = pid, sstr
				break
			}
		}
		if id != "" {
			break
		}
	}
	if id == "" {
		t.Skip("no suitable table in corpus")
	}
	rec, body := get(t, s, "/api/v1/publications/"+id+"/tables?q="+term)
	if rec.Code != http.StatusOK {
		t.Fatalf("table matches = %d: %v", rec.Code, body)
	}
	tables, _ := body["tables"].([]any)
	if len(tables) == 0 {
		t.Fatalf("no table matches for %q in %s", term, id)
	}
	if rec, _ := get(t, s, "/api/v1/publications/nope/tables?q=x"); rec.Code != http.StatusNotFound {
		t.Fatalf("missing pub = %d", rec.Code)
	}
	if rec, _ := get(t, s, "/api/v1/publications/"+id+"/tables?q="); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty query = %d", rec.Code)
	}
}

func TestPubNodesEndpoint(t *testing.T) {
	s, sys := testServer(t)
	// find a publication that contributed to the graph
	var pid string
	for _, id := range sys.Pubs.IDs() {
		if len(sys.Graph.NodesByPaper(id)) > 0 {
			pid = id
			break
		}
	}
	if pid == "" {
		t.Skip("no publication contributed to the KG in this corpus")
	}
	rec, body := get(t, s, "/api/v1/publications/"+pid+"/nodes")
	if rec.Code != http.StatusOK {
		t.Fatalf("pub nodes = %d", rec.Code)
	}
	nodes, _ := body["nodes"].([]any)
	if len(nodes) == 0 {
		t.Fatal("no nodes returned")
	}
	if rec, _ := get(t, s, "/api/v1/publications/nope/nodes"); rec.Code != http.StatusNotFound {
		t.Fatalf("missing pub = %d", rec.Code)
	}
}

// TestSearchZeroHitsStillOnePage: a valid query with no matches is a
// 200 with one empty page, never NumPages = 0 (UIs divide by it).
func TestSearchZeroHitsStillOnePage(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/api/v1/search?q=xylophone")
	if rec.Code != http.StatusOK {
		t.Fatalf("zero-hit search = %d: %v", rec.Code, body)
	}
	if body["Total"].(float64) != 0 {
		t.Fatalf("Total = %v", body["Total"])
	}
	if body["NumPages"].(float64) < 1 {
		t.Fatalf("NumPages = %v, want >= 1", body["NumPages"])
	}
}

// TestPagePastTheEndHoweverLarge: a page number whose product with the
// page size overflows int is still just a page past the end — 200, no
// results, the true Total — on the search handler and on the handlers
// that page through paginateSlice.
func TestPagePastTheEndHoweverLarge(t *testing.T) {
	s, _ := testServer(t)
	for _, path := range []string{
		"/api/v1/search?q=vaccine",
		"/api/v1/search?engine=tables&q=vaccine",
		"/api/v1/search?engine=fields&abstract=vaccine",
		"/api/v1/search?q=%22of+the%22+vaccine",
		"/api/v1/kg/search?q=vaccines",
	} {
		for _, page := range []string{"9223372036854775807", "922337203685477580", "4611686018427387904"} {
			rec, body := get(t, s, path+"&page="+page)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s page=%s = %d: %v", path, page, rec.Code, body)
			}
			if res, _ := body["Results"].([]any); len(res) != 0 || body["Total"].(float64) < 1 {
				t.Fatalf("%s page=%s: Results=%v Total=%v, want none and the true total", path, page, body["Results"], body["Total"])
			}
		}
	}
}

// TestSearchErrorStatusClasses: bad input is the caller's 400; only
// internal failures may 500.
func TestSearchErrorStatusClasses(t *testing.T) {
	s, _ := testServer(t)
	for _, path := range []string{
		"/api/v1/search?q=",              // empty query
		"/api/v1/search?q=the+of+and",    // stopwords only
		"/api/v1/search?engine=fields",   // all fields empty
		"/api/v1/search?engine=warp&q=x", // unknown engine
	} {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s = %d (%v), want 400", path, rec.Code, body)
		}
	}
	// good input never maps to 4xx
	if rec, body := get(t, s, "/api/v1/search?q=vaccine"); rec.Code != http.StatusOK {
		t.Fatalf("valid query = %d: %v", rec.Code, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	// generate some traffic so counters and histograms are populated
	get(t, s, "/api/v1/search?q=vaccine")
	get(t, s, "/api/v1/search?q=vaccine")
	rec, body := get(t, s, "/api/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	counters, _ := body["counters"].(map[string]any)
	if counters == nil {
		t.Fatalf("no counters in %v", body)
	}
	if counters["http.requests"].(float64) < 2 {
		t.Fatalf("http.requests = %v", counters["http.requests"])
	}
	if counters["search.queries"].(float64) < 2 {
		t.Fatalf("search.queries = %v", counters["search.queries"])
	}
	hists, _ := body["histograms"].(map[string]any)
	if hists == nil || hists["http.latency"] == nil {
		t.Fatalf("missing http.latency histogram: %v", body["histograms"])
	}
	if hists["search.stage.topk"] == nil && hists["search.stage.score"] == nil {
		t.Fatalf("missing per-stage timing: %v", body["histograms"])
	}
	cache, _ := body["search_cache"].(map[string]any)
	if cache == nil {
		t.Fatalf("missing search_cache stats: %v", body)
	}
	if cache["hits"].(float64) < 1 {
		t.Fatalf("repeat query did not register a cache hit: %v", cache)
	}
}

// TestKGSnapshotMetricsServed: the graph records its snapshot builds
// into the registry the server serves, as the search engine does, not
// into the process default.
func TestKGSnapshotMetricsServed(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Metrics = reg
	sys := core.NewSystem(cfg)
	s := NewServerWith(sys, Config{Metrics: reg})
	if rec, body := get(t, s, "/api/v1/kg/nodes/"+sys.Graph.RootID()); rec.Code != http.StatusOK {
		t.Fatalf("kg node = %d: %v", rec.Code, body)
	}
	_, body := get(t, s, "/api/v1/metrics")
	counters, _ := body["counters"].(map[string]any)
	if n, _ := counters["kg.snapshot_builds"].(float64); n < 1 {
		t.Fatalf("served kg.snapshot_builds = %v, want >= 1", counters["kg.snapshot_builds"])
	}
}

// postNDJSON posts a newline-delimited JSON body.
func postNDJSON(t *testing.T, s *Server, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	return rec, out
}

// TestBulkIngestPartialSuccess pins the per-document ingest contract: a
// batch with a bad document in the middle no longer rolls the response
// up into one error after silently storing everything before it. The
// response reports each document's outcome and the good ones land.
func TestBulkIngestPartialSuccess(t *testing.T) {
	s, sys := testServer(t)
	before := sys.Pubs.Count()
	body := `[
		{"_id": "bulk-ok-1", "title": "Bulk zymurgology outcomes"},
		{"_id": "bulk-ok-1", "title": "Duplicate id, must fail"},
		{"_id": "bulk-ok-2", "title": "Bulk zymurgology continued"}
	]`
	rec, resp := postJSON(t, s, "/api/v1/publications", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("partial ingest = %d: %v", rec.Code, resp)
	}
	if resp["ingested"].(float64) != 2 || resp["failed"].(float64) != 1 {
		t.Fatalf("counts: %v", resp)
	}
	results := resp["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("results: %v", results)
	}
	second := results[1].(map[string]any)
	if second["index"].(float64) != 1 || second["error"] == nil {
		t.Fatalf("failed doc not reported: %v", second)
	}
	if sys.Pubs.Count() != before+2 {
		t.Fatalf("count = %d, want %d", sys.Pubs.Count(), before+2)
	}
	rec, page := get(t, s, "/api/v1/search?q=zymurgology")
	if rec.Code != http.StatusOK || page["Total"].(float64) != 2 {
		t.Fatalf("ingested docs not searchable: %v", page)
	}
}

// TestBulkIngestNDJSONStreaming: the newline-delimited framing decodes
// incrementally (batches, not one big array) and reports the same
// per-document results.
func TestBulkIngestNDJSONStreaming(t *testing.T) {
	s, sys := testServer(t)
	before := sys.Pubs.Count()
	var b strings.Builder
	if _, err := sys.BuildKG(); err != nil {
		t.Fatal(err)
	}
	const table = `, "tables": [{"caption": "Table 1: Drugs", "rows": [["Drug", "Outcome measure"], ["Niclosamide", "Viral load"]], "header_rows": [0], "n_rows": 2, "n_cols": 2}]`
	for i := 0; i < 600; i++ { // > 2 ingest batches, one table in each
		tables := ""
		if i%256 == 7 {
			tables = table
		}
		fmt.Fprintf(&b, "{\"_id\": \"nd-%03d\", \"title\": \"Streamed niclosamide doc %d\"%s}\n", i, i, tables)
	}
	rec, resp := postNDJSON(t, s, "/api/v1/publications", b.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("ndjson ingest = %d: %v", rec.Code, resp)
	}
	if resp["ingested"].(float64) != 600 || resp["failed"].(float64) != 0 {
		t.Fatalf("counts: %v", resp)
	}
	// enrichment runs per batch; the response sums the batches
	if resp["tables"].(float64) != 3 {
		t.Fatalf("tables = %v, want the 3 this request carried", resp["tables"])
	}
	// per-doc indexes must be global across batches, not per-batch
	results := resp["results"].([]any)
	last := results[len(results)-1].(map[string]any)
	if last["index"].(float64) != 599 || last["id"] != "nd-599" {
		t.Fatalf("last result: %v", last)
	}
	if sys.Pubs.Count() != before+600 {
		t.Fatalf("count = %d, want %d", sys.Pubs.Count(), before+600)
	}

	// all-failed body (every id a duplicate) answers 400, nothing stored
	rec, resp = postNDJSON(t, s, "/api/v1/publications",
		"{\"_id\": \"nd-000\", \"title\": \"dup\"}\n{\"_id\": \"nd-001\", \"title\": \"dup\"}\n")
	if rec.Code != http.StatusBadRequest || resp["code"] != "bad_query" {
		t.Fatalf("all-failed ingest = %d %v", rec.Code, resp)
	}
	if sys.Pubs.Count() != before+600 {
		t.Fatalf("all-failed ingest stored docs: %d", sys.Pubs.Count())
	}

	// malformed tail: everything before it lands, truncation is flagged
	rec, resp = postNDJSON(t, s, "/api/v1/publications",
		"{\"_id\": \"nd-tail\", \"title\": \"Good doc\"}\n{not json\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("truncated ingest = %d: %v", rec.Code, resp)
	}
	if resp["truncated"] != true || resp["ingested"].(float64) != 1 {
		t.Fatalf("truncation not reported: %v", resp)
	}
}
