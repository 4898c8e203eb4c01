package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// getTenant issues a request carrying an X-Tenant-ID header.
func getTenant(t *testing.T, s *Server, tenant, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if tenant != "" {
		req.Header.Set("X-Tenant-ID", tenant)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body := map[string]any{}
	decodeBody(t, rec, &body)
	return rec, body
}

// decodeBody best-effort decodes a JSON object body (some routes return
// arrays or non-JSON; tenant tests only inspect object envelopes).
func decodeBody(t *testing.T, rec *httptest.ResponseRecorder, into *map[string]any) {
	t.Helper()
	_ = json.Unmarshal(rec.Body.Bytes(), into)
}

func TestTokenBucketRefillAndWait(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newTokenBucket(2, 4, now) // 2 tokens/s, burst 4

	for i := 0; i < 4; i++ {
		ok, _, _, _ := b.take(now)
		if !ok {
			t.Fatalf("take %d within burst failed", i)
		}
	}
	ok, wait, remaining, reset := b.take(now)
	if ok {
		t.Fatal("take beyond burst succeeded")
	}
	if want := 500 * time.Millisecond; wait != want {
		t.Fatalf("wait = %v, want %v", wait, want)
	}
	if remaining != 0 {
		t.Fatalf("remaining = %d, want 0", remaining)
	}
	// bucket refills fully in burst/rate = 2s
	if got, want := reset.Sub(now), 2*time.Second; got != want {
		t.Fatalf("reset in %v, want %v", got, want)
	}

	// half a second later exactly one token is back
	now = now.Add(500 * time.Millisecond)
	if ok, _, _, _ := b.take(now); !ok {
		t.Fatal("take after refill failed")
	}
	if ok, _, _, _ := b.take(now); ok {
		t.Fatal("second take after single-token refill succeeded")
	}
}

func TestRateLimitedResponseHeadersAndRetryAfter(t *testing.T) {
	clock := time.Unix(5000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	s, reg := liteServer(t, Config{
		Now: now,
		Tenants: map[string]TenantLimits{
			// 0.2 tokens/s: the refill wait for the next token is 5s,
			// which must surface verbatim (ceil) in Retry-After rather
			// than the static class-level RetryAfter below
			"slow": {Priority: PriorityStandard, RatePerSec: 0.2, Burst: 1},
		},
		RetryAfter: time.Second,
	})

	rec, _ := getTenant(t, s, "slow", "/api/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("first request = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Tenant-ID"); got != "slow" {
		t.Fatalf("X-Tenant-ID = %q", got)
	}
	if got := rec.Header().Get("X-RateLimit-Limit"); got != "1" {
		t.Fatalf("X-RateLimit-Limit = %q, want 1", got)
	}
	if got := rec.Header().Get("X-RateLimit-Remaining"); got != "0" {
		t.Fatalf("X-RateLimit-Remaining = %q, want 0", got)
	}
	if rec.Header().Get("X-RateLimit-Reset") == "" {
		t.Fatal("missing X-RateLimit-Reset")
	}

	rec, body := getTenant(t, s, "slow", "/api/v1/stats")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate request = %d, want 429", rec.Code)
	}
	if body["code"] != "rate_limited" {
		t.Fatalf("code = %v, want rate_limited", body["code"])
	}
	// the bucket needs 5s for the next token; the static config says 1s —
	// the bucket must win
	if ra := rec.Header().Get("Retry-After"); ra != "5" {
		t.Fatalf("Retry-After = %q, want \"5\" (token-bucket refill, not static config)", ra)
	}
	if got := reg.Counter("tenant.slow.rate_limited").Value(); got != 1 {
		t.Fatalf("tenant.slow.rate_limited = %d", got)
	}

	// advancing the clock past the refill restores service
	mu.Lock()
	clock = clock.Add(5 * time.Second)
	mu.Unlock()
	if rec, _ := getTenant(t, s, "slow", "/api/v1/stats"); rec.Code != http.StatusOK {
		t.Fatalf("post-refill request = %d", rec.Code)
	}
}

func TestQuotaExhaustionIsExact(t *testing.T) {
	s, reg := liteServer(t, Config{
		Tenants: map[string]TenantLimits{
			"metered": {Priority: PriorityHigh, Quota: 3},
		},
	})
	for i := 0; i < 3; i++ {
		if rec, _ := getTenant(t, s, "metered", "/api/v1/stats"); rec.Code != http.StatusOK {
			t.Fatalf("request %d within quota = %d", i, rec.Code)
		}
	}
	rec, body := getTenant(t, s, "metered", "/api/v1/stats")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota request = %d, want 429", rec.Code)
	}
	if body["code"] != "quota_exceeded" {
		t.Fatalf("code = %v, want quota_exceeded", body["code"])
	}
	if got := reg.Counter("tenant.metered.served").Value(); got != 3 {
		t.Fatalf("served = %d, want exactly the quota", got)
	}
	if got := reg.Counter("tenant.metered.quota_rejected").Value(); got != 1 {
		t.Fatalf("quota_rejected = %d", got)
	}
}

func TestQuotaExactUnderConcurrency(t *testing.T) {
	const quota = 16
	s, reg := liteServer(t, Config{
		MaxInflightLight: 64,
		Tenants: map[string]TenantLimits{
			"racer": {Priority: PriorityHigh, Quota: quota},
		},
	})
	var wg sync.WaitGroup
	for i := 0; i < 4*quota; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil)
			req.Header.Set("X-Tenant-ID", "racer")
			s.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	wg.Wait()
	if got := reg.Counter("tenant.racer.served").Value(); got != quota {
		t.Fatalf("served = %d, want exactly %d (quota must be race-exact)", got, quota)
	}
}

func TestPriorityAdmissionShedsLowFirst(t *testing.T) {
	// capacity 4 → ceilings low=2, standard=4, high=4
	s, reg := liteServer(t, Config{
		MaxInflightSearch: 4,
		Tenants: map[string]TenantLimits{
			"free":    {Priority: PriorityLow},
			"premium": {Priority: PriorityHigh},
		},
	})

	// fill the class to the low-priority ceiling
	for i := 0; i < 2; i++ {
		if ok, _ := s.adms[classSearch].acquire(PriorityHigh); !ok {
			t.Fatal("could not pre-fill")
		}
	}
	defer func() {
		s.adms[classSearch].release()
		s.adms[classSearch].release()
	}()

	rec, body := getTenant(t, s, "free", "/api/v1/search?q=vaccine")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("low-priority request at its ceiling = %d, want 429", rec.Code)
	}
	if body["code"] != "overloaded" {
		t.Fatalf("code = %v", body["code"])
	}
	if rec, _ := getTenant(t, s, "premium", "/api/v1/search?q=vaccine"); rec.Code != http.StatusOK {
		t.Fatalf("high-priority request above the low ceiling = %d, want 200", rec.Code)
	}

	if got := reg.Counter("requests_shed.priority.low").Value(); got != 1 {
		t.Fatalf("requests_shed.priority.low = %d", got)
	}
	if got := reg.Counter("tenant.free.shed").Value(); got != 1 {
		t.Fatalf("tenant.free.shed = %d", got)
	}
	if got := reg.Counter("admission_inversions").Value(); got != 0 {
		t.Fatalf("admission_inversions = %d, want 0", got)
	}
}

func TestAdmitterCeilingsMonotone(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 4, 8, 64, 256} {
		a := newAdmitter(capacity)
		lims := a.limits
		if lims[PriorityLow] < 1 || lims[PriorityLow] > lims[PriorityStandard] ||
			lims[PriorityStandard] > lims[PriorityHigh] || lims[PriorityHigh] != capacity {
			t.Fatalf("cap %d: ceilings %v not monotone up to capacity", capacity, lims)
		}
	}
}

func TestMetricsExposeRuntimeHealth(t *testing.T) {
	s, _ := liteServer(t, Config{})
	rec, snap := getTenant(t, s, "", "/api/v1/metrics")
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

func TestUnknownTenantFallsBackToAnonymous(t *testing.T) {
	s, _ := liteServer(t, Config{
		Tenants: map[string]TenantLimits{"known": {Priority: PriorityHigh}},
	})
	rec, _ := getTenant(t, s, "nobody-configured-this", "/api/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("unknown tenant = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Tenant-ID"); got != anonTenant {
		t.Fatalf("X-Tenant-ID = %q, want %q", got, anonTenant)
	}
	if rec.Header().Get("X-RateLimit-Limit") != "" {
		t.Fatal("anonymous traffic must not carry rate-limit headers by default")
	}
	// header-less requests land on the same anonymous state
	rec, _ = getTenant(t, s, "", "/api/v1/stats")
	if got := rec.Header().Get("X-Tenant-ID"); got != anonTenant {
		t.Fatalf("missing header X-Tenant-ID = %q", got)
	}
}

// TestAbusiveTenantCannotDegradePriority: a low-priority tenant drives
// ten times its quota in concurrent searches beside a high-priority
// tenant. The low tenant is served exactly its quota, and the priority
// ceilings keep it from ever filling the slots the high tenant needs: 20
// low workers can hold at most the low ceiling (4 of 8), so 4 high
// workers always find a slot.
func TestAbusiveTenantCannotDegradePriority(t *testing.T) {
	const quota = 20
	s, reg := liteServer(t, Config{
		MaxInflightSearch: 8,
		Tenants: map[string]TenantLimits{
			"bronze": {Priority: PriorityLow, Quota: quota},
			"gold":   {Priority: PriorityHigh},
		},
	})
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		outcomes = map[string]map[string]int{"bronze": {}, "gold": {}}
	)
	drive := func(tenant string, workers, perWorker int) {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					rec, body := getTenant(t, s, tenant, "/api/v1/search?q=vaccine")
					outcome := "failed"
					switch rec.Code {
					case http.StatusOK:
						outcome = "ok"
					case http.StatusTooManyRequests:
						outcome, _ = body["code"].(string)
					}
					mu.Lock()
					outcomes[tenant][outcome]++
					mu.Unlock()
				}
			}()
		}
	}
	drive("bronze", 20, quota/2) // 10 × quota
	drive("gold", 4, 25)
	wg.Wait()

	if got := reg.Counter("tenant.bronze.served").Value(); got != quota {
		t.Fatalf("tenant.bronze.served = %d, want exactly the quota %d (outcomes %v)", got, quota, outcomes["bronze"])
	}
	if gold := outcomes["gold"]; gold["ok"] != 4*25 {
		t.Fatalf("priority tenant outcomes %v, want all %d ok: no shed, failed or quota-denied", gold, 4*25)
	}
	if got := reg.Counter("admission_inversions").Value(); got != 0 {
		t.Fatalf("admission_inversions = %d, want 0", got)
	}
}
