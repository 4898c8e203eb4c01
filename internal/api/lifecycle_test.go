package api

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"covidkg/internal/cord19"
	"covidkg/internal/core"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// liteServer builds a server over an untrained 30-doc system — search
// and aggregate work straight off the ingest index, which is all the
// lifecycle tests need — with an isolated metrics registry.
func liteServer(t *testing.T, cfg Config) (*Server, *metrics.Registry) {
	t.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	if err := sys.IngestPublications(cord19.NewGenerator(9).Corpus(30)); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	return NewServerWith(sys, cfg), reg
}

func TestV1Routes(t *testing.T) {
	s, _ := testServer(t)
	for _, path := range []string{
		"/api/v1/stats",
		"/api/v1/search?q=vaccine",
		"/api/v1/kg",
		"/api/v1/kg/search?q=vaccines",
		"/api/v1/metrics",
		"/api/v1/bias",
		"/api/v1/models",
		"/api/v1/reviews",
	} {
		if rec, _ := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", path, rec.Code)
		}
	}
}

// TestOnePrefix pins that /api/v1 is the only mount: the unversioned
// prefix and the pre-redesign KG node routes are gone, not aliased.
func TestOnePrefix(t *testing.T) {
	s, _ := testServer(t)
	for _, path := range []string{
		"/api/search?q=vaccine",
		"/api/stats",
		"/api/v1/kg/node/x",
		"/api/v1/kg/node/x/children",
	} {
		if rec, _ := get(t, s, path); rec.Code != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", path, rec.Code)
		}
	}
}

func TestErrorEnvelope(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"GET", "/api/v1/search?q=", "", http.StatusBadRequest, "bad_query"},
		{"GET", "/api/v1/search?engine=warp&q=x", "", http.StatusBadRequest, "bad_query"},
		{"GET", "/api/v1/publications/nope", "", http.StatusNotFound, "not_found"},
		{"GET", "/api/v1/kg/nodes/bogus", "", http.StatusNotFound, "not_found"},
		{"GET", "/api/v1/models/none", "", http.StatusNotFound, "not_found"},
		{"POST", "/api/v1/aggregate", `{"pipeline": [{"$warp": 1}]}`, http.StatusBadRequest, "bad_query"},
		{"POST", "/api/v1/aggregate", `{"collection": "nope", "pipeline": []}`, http.StatusNotFound, "not_found"},
		{"POST", "/api/v1/publications", `[]`, http.StatusBadRequest, "bad_query"},
		{"POST", "/api/v1/reviews/abc/reject", "", http.StatusBadRequest, "bad_query"},
	}
	for _, c := range cases {
		var rec *httptest.ResponseRecorder
		var body map[string]any
		if c.method == "GET" {
			rec, body = get(t, s, c.path)
		} else {
			rec, body = postJSON(t, s, c.path, c.body)
		}
		if rec.Code != c.status {
			t.Fatalf("%s %s = %d, want %d", c.method, c.path, rec.Code, c.status)
		}
		if body["error"] == nil || body["error"] == "" {
			t.Fatalf("%s %s: envelope missing error: %v", c.method, c.path, body)
		}
		if body["code"] != c.code {
			t.Fatalf("%s %s: code = %v, want %q", c.method, c.path, body["code"], c.code)
		}
		id, _ := body["request_id"].(string)
		if id == "" {
			t.Fatalf("%s %s: envelope missing request_id: %v", c.method, c.path, body)
		}
		if hdr := rec.Header().Get("X-Request-ID"); hdr != id {
			t.Fatalf("%s %s: header id %q != envelope id %q", c.method, c.path, hdr, id)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	s, _ := testServer(t)
	// server-generated ids are unique per request
	rec1, _ := get(t, s, "/api/v1/stats")
	rec2, _ := get(t, s, "/api/v1/stats")
	id1, id2 := rec1.Header().Get("X-Request-ID"), rec2.Header().Get("X-Request-ID")
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Fatalf("ids = %q, %q: want distinct non-empty", id1, id2)
	}

	// client-supplied ids are honored...
	req := httptest.NewRequest(http.MethodGet, "/api/v1/publications/nope", nil)
	req.Header.Set("X-Request-ID", "trace-42.a_b")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "trace-42.a_b" {
		t.Fatalf("echoed id = %q", got)
	}
	if !strings.Contains(rec.Body.String(), `"request_id":"trace-42.a_b"`) {
		t.Fatalf("envelope missing client id: %s", rec.Body.String())
	}

	// ...but sanitized: header/JSON metacharacters are stripped
	req = httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil)
	req.Header.Set("X-Request-ID", `ev il"id<>`+"\t{}")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "evilid" {
		t.Fatalf("sanitized id = %q, want %q", got, "evilid")
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	s, reg := liteServer(t, Config{MaxInflightSearch: 1, RetryAfter: 3 * time.Second})

	// saturate the search class from the outside
	if ok := s.adms[classSearch].acquire(); !ok {
		t.Fatal("could not pre-fill the search class")
	}
	rec, body := get(t, s, "/api/v1/search?q=vaccine")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated search = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if body["code"] != "overloaded" {
		t.Fatalf("code = %v, want overloaded", body["code"])
	}
	if got := reg.Counter("requests_shed").Value(); got != 1 {
		t.Fatalf("requests_shed = %d, want 1", got)
	}

	// other classes are unaffected by search saturation
	if rec, _ := get(t, s, "/api/v1/stats"); rec.Code != http.StatusOK {
		t.Fatalf("light route shed alongside search = %d", rec.Code)
	}

	// freeing the slot restores service
	s.adms[classSearch].release()
	if rec, _ := get(t, s, "/api/v1/search?q=vaccine"); rec.Code != http.StatusOK {
		t.Fatalf("post-drain search = %d", rec.Code)
	}

	// the shed counter is visible on the metrics surface
	_, snap := get(t, s, "/api/v1/metrics")
	counters, _ := snap["counters"].(map[string]any)
	if counters["requests_shed"].(float64) != 1 {
		t.Fatalf("metrics requests_shed = %v", counters["requests_shed"])
	}
	gauges, _ := snap["gauges"].(map[string]any)
	if _, ok := gauges["inflight_search"]; !ok {
		t.Fatalf("metrics missing inflight_search gauge: %v", snap["gauges"])
	}
}

// TestAdmissionAdmitsConfiguredCapacity: a class configured for N
// in-flight requests admits the Nth and sheds the N+1th.
func TestAdmissionAdmitsConfiguredCapacity(t *testing.T) {
	const capacity = 5
	s, reg := liteServer(t, Config{MaxInflightSearch: capacity})
	adm := s.adms[classSearch]
	held := 0
	defer func() {
		for ; held > 0; held-- {
			adm.release()
		}
	}()
	hold := func(n int) {
		for ; held < n; held++ {
			if !adm.acquire() {
				t.Fatalf("could not hold slot %d of %d", held+1, capacity)
			}
		}
	}

	hold(capacity - 1)
	if rec, body := get(t, s, "/api/v1/search?q=vaccine"); rec.Code != http.StatusOK {
		t.Fatalf("search with %d of %d slots held = %d (%v), want 200", held, capacity, rec.Code, body)
	}
	hold(capacity)
	rec, body := get(t, s, "/api/v1/search?q=vaccine")
	if rec.Code != http.StatusTooManyRequests || body["code"] != "overloaded" {
		t.Fatalf("search with every slot held = %d (%v), want 429 overloaded", rec.Code, body)
	}
	if got := reg.Counter("requests_shed").Value(); got != 1 {
		t.Fatalf("requests_shed = %d, want 1", got)
	}
}

func TestMetricsExposeRuntimeHealth(t *testing.T) {
	s, _ := liteServer(t, Config{})
	rec, snap := get(t, s, "/api/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	rt, ok := snap["runtime"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing runtime block: %v", snap)
	}
	for _, key := range []string{"goroutines", "heap_inuse_bytes", "gc_pause_p99_us", "num_gc"} {
		if _, ok := rt[key]; !ok {
			t.Fatalf("runtime block missing %s: %v", key, rt)
		}
	}
	if rt["goroutines"].(float64) < 1 {
		t.Fatalf("goroutines = %v", rt["goroutines"])
	}
	gauges, _ := snap["gauges"].(map[string]any)
	if _, ok := gauges["runtime.goroutines"]; !ok {
		t.Fatalf("gauges missing runtime.goroutines: %v", gauges)
	}
}

func TestDeadlineExceededEnvelope(t *testing.T) {
	s, reg := liteServer(t, Config{
		SearchTimeout:    time.Nanosecond,
		AggregateTimeout: time.Nanosecond,
	})
	rec, body := get(t, s, "/api/v1/search?q=vaccine")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired search = %d (%v), want 504", rec.Code, body)
	}
	if body["code"] != "deadline_exceeded" {
		t.Fatalf("code = %v", body["code"])
	}
	rec, body = postJSON(t, s, "/api/v1/aggregate",
		`{"pipeline": [{"$match": {"title": {"$regex": "covid"}}}]}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired aggregate = %d (%v), want 504", rec.Code, body)
	}
	if body["code"] != "deadline_exceeded" {
		t.Fatalf("aggregate code = %v", body["code"])
	}
	if got := reg.Counter("deadline_exceeded").Value(); got < 2 {
		t.Fatalf("deadline_exceeded = %d, want >= 2", got)
	}
	// expired queries must not poison the query cache
	if st := s.sys.Search.CacheStats(); st.Entries != 0 {
		t.Fatalf("expired query cached %d entries", st.Entries)
	}
}

func TestCancelledClientEnvelope(t *testing.T) {
	s, reg := liteServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client hung up before the handler ran
	req := httptest.NewRequest(http.MethodGet, "/api/v1/search?q=vaccine", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled search = %d, want %d", rec.Code, StatusClientClosedRequest)
	}
	if !strings.Contains(rec.Body.String(), `"code":"cancelled"`) {
		t.Fatalf("envelope = %s", rec.Body.String())
	}
	if got := reg.Counter("requests_cancelled").Value(); got != 1 {
		t.Fatalf("requests_cancelled = %d, want 1", got)
	}
	if st := s.sys.Search.CacheStats(); st.Entries != 0 {
		t.Fatalf("cancelled query cached %d entries", st.Entries)
	}
}

// scanHookDocs runs hook with each GetMany's context once its batch is
// read, and counts the calls; its scan is the shared id-ordered scan
// over itself, so every batch a full scan reads goes through GetMany.
type scanHookDocs struct {
	docstore.Docs
	hook  func(ctx context.Context)
	calls int
}

func (h *scanHookDocs) GetMany(ctx context.Context, ids []string) ([]jsondoc.Doc, []int, error) {
	h.calls++
	docs, missing, err := h.Docs.GetMany(ctx, ids)
	h.hook(ctx)
	return docs, missing, err
}

func (h *scanHookDocs) ScanContext(ctx context.Context, fn func(jsondoc.Doc) bool) error {
	return docstore.Scan(ctx, h, fn)
}

// TestBiasStopsWithItsRequest: /bias audits under its request's
// context, so a client that hangs up mid-scan is answered 499, a route
// deadline that passes mid-scan 504, and either way the scan issues no
// GetMany after the batch in flight.
func TestBiasStopsWithItsRequest(t *testing.T) {
	sys := core.NewSystem(core.DefaultConfig())
	for i := 0; i < 3*docstore.ScanBatchSize; i++ {
		if _, err := sys.Pubs.Insert(jsondoc.Doc{"_id": fmt.Sprintf("p%04d", i), "title": "covid vaccine trial"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		hook    func(ctx context.Context, cancel context.CancelFunc)
		status  int
		code    string
	}{
		{"client gone", time.Minute, func(_ context.Context, cancel context.CancelFunc) { cancel() },
			StatusClientClosedRequest, "cancelled"},
		{"deadline passed", 50 * time.Millisecond, func(ctx context.Context, _ context.CancelFunc) { <-ctx.Done() },
			http.StatusGatewayTimeout, "deadline_exceeded"},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		pubs := &scanHookDocs{Docs: sys.Pubs}
		pubs.hook = func(ctx context.Context) { tc.hook(ctx, cancel) }
		sys.Pubs = pubs
		s := NewServerWith(sys, Config{AggregateTimeout: tc.timeout, Metrics: metrics.NewRegistry()})
		req := httptest.NewRequest(http.MethodGet, "/api/v1/bias", nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		cancel()
		sys.Pubs = pubs.Docs
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), `"code":"`+tc.code+`"`) {
			t.Fatalf("%s: /bias = %d %s, want %d %s", tc.name, rec.Code, rec.Body.String(), tc.status, tc.code)
		}
		if pubs.calls != 1 {
			t.Fatalf("%s: the audit's scan called GetMany %d times, want only the batch in flight", tc.name, pubs.calls)
		}
	}
}

// TestLifecycleConcurrencySmoke hammers the admission-controlled search
// route from many goroutines; under -race this exercises the semaphore,
// gauge, and counter plumbing for data races. Every response must be
// either a success or a well-formed shed.
func TestLifecycleConcurrencySmoke(t *testing.T) {
	s, reg := liteServer(t, Config{MaxInflightSearch: 2})
	var wg sync.WaitGroup
	var bad atomic32
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				req := httptest.NewRequest(http.MethodGet, "/api/v1/search?q=vaccine", nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK && rec.Code != http.StatusTooManyRequests {
					bad.inc()
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.load(); n != 0 {
		t.Fatalf("%d responses were neither 200 nor 429", n)
	}
	if g := reg.Gauge("inflight_search").Value(); g != 0 {
		t.Fatalf("inflight_search = %d after drain, want 0", g)
	}
}

type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) inc() { a.mu.Lock(); a.n++; a.mu.Unlock() }
func (a *atomic32) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}
