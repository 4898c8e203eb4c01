package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"covidkg/internal/kg"
)

func TestKGQueryEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec, body := postJSON(t, s, "/api/v1/kg/query",
		`{"query": "(norm=\"vaccines\")-{1,2}->()"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %v", rec.Code, body)
	}
	paths, ok := body["paths"].([]any)
	if !ok || len(paths) < 2 {
		t.Fatalf("paths = %v", body["paths"])
	}
	for _, k := range []string{"total", "page_num", "per_page", "num_pages", "expansions"} {
		if _, ok := body[k]; !ok {
			t.Fatalf("missing %s in %v", k, body)
		}
	}
	plan, ok := body["plan"].(map[string]any)
	if !ok || plan["entry"] != "norm-index" {
		t.Fatalf("plan = %v", body["plan"])
	}
	first := paths[0].(map[string]any)
	for _, k := range []string{"nodes", "confidence", "evidence_coverage", "score"} {
		if _, ok := first[k]; !ok {
			t.Fatalf("path missing %s: %v", k, first)
		}
	}
}

func TestKGQueryParams(t *testing.T) {
	s, _ := testServer(t)
	rec, body := postJSON(t, s, "/api/v1/kg/query",
		`{"query": "(norm=$start)->()", "params": {"start": "vaccines"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %v", rec.Code, body)
	}
	if body["total"].(float64) < 1 {
		t.Fatalf("no paths: %v", body)
	}
}

func TestKGQueryPagination(t *testing.T) {
	s, _ := testServer(t)
	rec, body := postJSON(t, s, "/api/v1/kg/query",
		`{"query": "()-->()", "page": 1, "page_size": 3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %v", rec.Code, body)
	}
	if got := len(body["paths"].([]any)); got != 3 {
		t.Fatalf("page size = %d, want 3", got)
	}
	total := int(body["total"].(float64))
	numPages := int(body["num_pages"].(float64))
	if total <= 3 || numPages != (total+2)/3 {
		t.Fatalf("total %d num_pages %d", total, numPages)
	}
	// walking past the end answers an empty page, not an error
	rec, body = postJSON(t, s, "/api/v1/kg/query",
		`{"query": "()-->()", "page": 10000, "page_size": 3}`)
	if rec.Code != http.StatusOK || len(body["paths"].([]any)) != 0 {
		t.Fatalf("overrun page = %d %v", rec.Code, body["paths"])
	}
}

func TestKGQueryErrors(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct {
		body string
		frag string
	}{
		{`{"query": "(norm="}`, "parse error at offset"},
		{`{"query": }`, "bad request body"},
		{`{}`, "missing query text"},
		{`{"query": "(bogus=\"x\")"}`, "unknown field"},
		{`{"query": "(norm=$nope)"}`, "unbound parameter"},
		{`{"query": "()-{0,2}->()"}`, "hop minimum"},
	}
	for _, c := range cases {
		rec, body := postJSON(t, s, "/api/v1/kg/query", c.body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", c.body, rec.Code)
		}
		if body["code"] != "bad_query" {
			t.Fatalf("%s: code = %v, want bad_query", c.body, body["code"])
		}
		if !strings.Contains(body["error"].(string), c.frag) {
			t.Fatalf("%s: error %q missing %q", c.body, body["error"], c.frag)
		}
	}
}

// An oversized body is refused while it is read, not decoded to the end.
func TestKGBodyTooLarge(t *testing.T) {
	s, _ := testServer(t)
	huge := `{"query": "()-->()", "params": {"pad": "` + strings.Repeat("x", kgMaxBodyBytes) + `"}}`
	for _, path := range []string{"/api/v1/kg/query", "/api/v1/kg/hypotheses"} {
		rec, body := postJSON(t, s, path, huge)
		if rec.Code != http.StatusRequestEntityTooLarge || body["code"] != "too_large" {
			t.Fatalf("%s: %d MiB body = %d %v, want 413 too_large", path, len(huge)>>20, rec.Code, body)
		}
	}
	// the limit is on the body, not on what it says
	rec, body := postJSON(t, s, "/api/v1/kg/query",
		`{"query": "()-->()", "params": {"pad": "`+strings.Repeat("x", kgMaxBodyBytes/2)+`"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("half-limit body = %d %v", rec.Code, body)
	}
}

func TestKGQueryCancelledClient(t *testing.T) {
	s, _ := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/kg/query",
		strings.NewReader(`{"query": "()-{1,4}-()"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &body)
	if rec.Code != StatusClientClosedRequest || body["code"] != "cancelled" {
		t.Fatalf("cancelled query = %d %v, want 499 cancelled", rec.Code, body)
	}
}

func TestKGHypothesesEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec, body := postJSON(t, s, "/api/v1/kg/hypotheses",
		`{"from": "mRNA vaccines", "to": "Vector vaccines", "max_hops": 2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("hypotheses = %d: %v", rec.Code, body)
	}
	paths := body["paths"].([]any)
	if len(paths) == 0 {
		t.Fatalf("no hypothesis paths: %v", body)
	}
	first := paths[0].(map[string]any)
	if first["score"].(float64) <= 0 {
		t.Fatalf("unranked path: %v", first)
	}

	rec, body = postJSON(t, s, "/api/v1/kg/hypotheses",
		`{"from": "no such concept anywhere", "to": "Vaccines"}`)
	if rec.Code != http.StatusNotFound || body["code"] != "not_found" {
		t.Fatalf("unknown concept = %d %v, want 404 not_found", rec.Code, body)
	}

	rec, body = postJSON(t, s, "/api/v1/kg/hypotheses", `{"from": "", "to": ""}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty concepts = %d %v", rec.Code, body)
	}
}

func TestKGNodesResource(t *testing.T) {
	s, sys := testServer(t)
	root := sys.Graph.RootID()

	rec, body := get(t, s, "/api/v1/kg/nodes/"+root)
	if rec.Code != http.StatusOK || body["node"] == nil || body["path"] == nil {
		t.Fatalf("nodes/{id} = %d %v", rec.Code, body)
	}
	if _, ok := body["children"]; ok {
		t.Fatalf("children embedded without expand")
	}

	rec, body = get(t, s, "/api/v1/kg/nodes/"+root+"?expand=children&page=1&page_size=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("expand = %d", rec.Code)
	}
	kids, ok := body["children"].(map[string]any)
	if !ok {
		t.Fatalf("children = %v", body["children"])
	}
	if got := len(kids["Results"].([]any)); got != 2 {
		t.Fatalf("children page = %d results, want 2", got)
	}
	if int(kids["Total"].(float64)) < 3 {
		t.Fatalf("children total = %v", kids["Total"])
	}

	rec, body = get(t, s, "/api/v1/kg/nodes/bogus")
	if rec.Code != http.StatusNotFound || body["code"] != "not_found" {
		t.Fatalf("bogus node = %d %v", rec.Code, body)
	}
}

// TestKGNodesConsistentUnderFusion reads a node with its children
// expanded while a writer adds and removes children under it: the
// node's own child list and the expanded page come from one snapshot,
// so on a page that holds them all the two must always agree.
func TestKGNodesConsistentUnderFusion(t *testing.T) {
	s, sys := testServer(t)
	parent, err := sys.Graph.AddNode(sys.Graph.RootID(), "Churning concept", kg.SourceExpert)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var live []string
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if len(live) < 40 {
				n, err := sys.Graph.AddNode(parent.ID, "Churn "+strconv.Itoa(i+10), kg.SourceFusion, "px")
				if err != nil {
					t.Errorf("add: %v", err)
					return
				}
				live = append(live, n.ID)
			} else {
				for _, id := range live[:20] {
					if err := sys.Graph.RemoveLeaf(id); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
				}
				live = live[20:]
			}
		}
	}()
	for i := 0; i < 300; i++ {
		rec, body := get(t, s, "/api/v1/kg/nodes/"+parent.ID+"?expand=children&page_size=100")
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d = %d %v", i, rec.Code, body)
		}
		own, _ := body["node"].(map[string]any)["children"].([]any)
		page := body["children"].(map[string]any)
		expanded := page["Results"].([]any)
		if len(own) != len(expanded) || int(page["Total"].(float64)) != len(own) {
			t.Fatalf("read %d: node lists %d children, expansion %d of %v", i, len(own), len(expanded), page["Total"])
		}
		for k := range own {
			if id := expanded[k].(map[string]any)["id"]; id != own[k] {
				t.Fatalf("read %d: child %d is %v in the node, %v in the expansion", i, k, own[k], id)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestKGSearchPaginated(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s, "/api/v1/kg/search?q=vaccines&page_size=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("kg search = %d", rec.Code)
	}
	results, ok := body["Results"].([]any)
	if !ok {
		t.Fatalf("results = %v", body)
	}
	if len(results) > 1 {
		t.Fatalf("page_size=1 returned %d results", len(results))
	}
	total := int(body["Total"].(float64))
	if total < 1 || int(body["NumPages"].(float64)) != total {
		t.Fatalf("total %v num_pages %v", body["Total"], body["NumPages"])
	}
}

func TestKGQueryMetrics(t *testing.T) {
	s, _ := testServer(t)
	postJSON(t, s, "/api/v1/kg/query", `{"query": "(norm=\"vaccines\")->()"}`)
	postJSON(t, s, "/api/v1/kg/query", `{"query": "(((("}`)
	if got := s.met.Counter("kgquery.queries").Value(); got < 1 {
		t.Fatalf("kgquery.queries = %d", got)
	}
	if got := s.met.Counter("kgquery.parse_errors").Value(); got < 1 {
		t.Fatalf("kgquery.parse_errors = %d", got)
	}
}
