package api

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// warmSearchHitAllocs bounds the allocations of one warm GET
// /api/v1/search through Server.ServeHTTP, the recorder included:
// measured 58 (59-62 under -race), ceiling +10 %. Middleware, query
// parsing and the cache scope make nearly all of them; the body is
// written as stored.
const warmSearchHitAllocs = 64

// TestWarmSearchHitAllocs: a cache hit writes the stored body and
// encodes nothing, so its allocations stay under a fixed ceiling, and
// the body it writes is the one the miss wrote, with its Content-Length.
func TestWarmSearchHitAllocs(t *testing.T) {
	s, sys := testServer(t)
	const path = "/api/v1/search?engine=all&q=vaccine+masks+fever"
	miss, _ := get(t, s, path)
	if miss.Code != http.StatusOK {
		t.Fatalf("status %d: %s", miss.Code, miss.Body.String())
	}
	hits := sys.Search.CacheStats().Hits
	req := httptest.NewRequest(http.MethodGet, path, nil)
	var rec *httptest.ResponseRecorder
	allocs := testing.AllocsPerRun(200, func() {
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, req)
	})
	t.Logf("%.0f allocs per warm hit", allocs)
	if got := sys.Search.CacheStats().Hits - hits; got != 201 {
		t.Fatalf("%d cache hits over 201 requests", got)
	}
	if rec.Body.String() != miss.Body.String() {
		t.Fatalf("hit body %q, miss body %q", rec.Body.String(), miss.Body.String())
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	if allocs > warmSearchHitAllocs {
		t.Fatalf("%.0f allocs per warm hit, ceiling %d", allocs, warmSearchHitAllocs)
	}
}
