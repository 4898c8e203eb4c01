package api

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"covidkg/internal/breaker"
	"covidkg/internal/core"
	"covidkg/internal/docstore"
	"covidkg/internal/failpoint"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// chaosServer builds a server over a 4-shard system wired
// with a failpoint registry, seeded with 40 publications (ids c00..c39,
// all matching "covid") so every shard holds several documents.
func chaosServer(t *testing.T) (*Server, *core.System, *failpoint.Registry, *metrics.Registry) {
	t.Helper()
	fp := failpoint.New(1)
	fp.SetSleeper(func(time.Duration) {})
	reg := metrics.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Failpoints = fp
	cfg.Metrics = reg
	cfg.Breaker = breaker.Config{Threshold: 2, Cooldown: time.Millisecond}
	sys := core.NewSystem(cfg)
	var docs []jsondoc.Doc
	for i := 0; i < 40; i++ {
		docs = append(docs, jsondoc.Doc{
			"_id":       fmt.Sprintf("c%02d", i),
			"title":     fmt.Sprintf("Covid study %d", i),
			"abstract":  "Covid results obtained with the standard assay.",
			"body_text": "Body text about covid outcomes.",
			"journal":   "Test Journal",
		})
	}
	if err := sys.IngestDocs(docs).Err(); err != nil {
		t.Fatal(err)
	}
	return NewServerWith(sys, Config{Metrics: reg}), sys, fp, reg
}

// darkShard downs the shard owning c00 and returns its index plus one id
// that lives there.
func darkShard(sys *core.System, fp *failpoint.Registry) (int, string) {
	si := sys.Pubs.ShardOfID("c00")
	fp.Set(docstore.ShardTarget(si), failpoint.Rule{Down: true})
	return si, "c00"
}

// TestChaosInvariant drives one system end to end through a shard
// outage: with one of four shards dark, search returns 200 with partial
// results and writes to the dark shard are rejected whole; after the
// failpoint clears, the half-open probe restores the shard and the write
// audit finds no acked write lost and no rejected write resurrected.
func TestChaosInvariant(t *testing.T) {
	s, sys, fp, reg := chaosServer(t)

	// healthy baseline: full results, ready, no partial marker
	rec, body := get(t, s, "/api/v1/search?q=covid")
	if rec.Code != http.StatusOK || body["Total"].(float64) != 40 {
		t.Fatalf("baseline search = %d total %v", rec.Code, body["Total"])
	}
	if rec.Header().Get("X-Partial-Results") != "" {
		t.Fatal("healthy search carries X-Partial-Results")
	}
	if rec, _ := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("healthy readyz = %d", rec.Code)
	}

	// one of four shards goes fully dark; query a term not yet cached
	// (the baseline "covid" page is legitimately served from cache)
	si, darkID := darkShard(sys, fp)
	rec, body = get(t, s, "/api/v1/search?q=study")
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded search = %d, want 200 (never 500)", rec.Code)
	}
	if body["partial"] != true {
		t.Fatalf("degraded search body missing partial: %v", body)
	}
	if rec.Header().Get("X-Partial-Results") != "true" {
		t.Fatal("degraded search missing X-Partial-Results header")
	}
	miss, _ := body["missing_shards"].([]any)
	if len(miss) != 1 || int(miss[0].(float64)) != si {
		t.Fatalf("missing_shards = %v, want [%d]", miss, si)
	}
	if total := body["Total"].(float64); total >= 40 || total <= 0 {
		t.Fatalf("degraded Total = %v, want partial coverage", total)
	}

	// liveness stays green, readiness goes red with per-shard detail
	if rec, _ := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("liveness flapped on shard outage: %d", rec.Code)
	}
	rec, body = get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("readyz during outage = %d %v, want 503 degraded", rec.Code, body["status"])
	}
	shards, _ := body["shards"].([]any)
	if len(shards) != 4 {
		t.Fatalf("readyz shards = %v", body["shards"])
	}
	dark := shards[si].(map[string]any)
	if dark["ready"] != false {
		t.Fatalf("dark shard %d reported ready: %v", si, dark)
	}

	// point lookups on the dark shard answer 503, not 404 or 500
	rec, body = get(t, s, "/api/v1/publications/"+darkID)
	if rec.Code != http.StatusServiceUnavailable || body["code"] != "unavailable" {
		t.Fatalf("dark-shard lookup = %d %v, want 503 unavailable", rec.Code, body["code"])
	}

	// writes during the outage: those placed on the dark shard are
	// rejected whole, the rest are acked — the audit after recovery
	// proves no acked write was lost and no rejected one resurrected
	var acked, rejected []string
	var outage []jsondoc.Doc
	for i := 0; i < 12; i++ {
		outage = append(outage, jsondoc.Doc{"_id": fmt.Sprintf("outage-%02d", i), "title": "Outage write"})
	}
	for i, res := range sys.IngestDocs(outage).Results {
		id := outage[i].GetString("_id") // a rejected result carries no id
		if res.Error != "" {
			rejected = append(rejected, id)
		} else {
			acked = append(acked, id)
		}
	}
	if len(rejected) == 0 || len(acked) == 0 {
		t.Fatalf("outage writes: %d acked, %d rejected; want some of each", len(acked), len(rejected))
	}

	// recovery: the failpoint clears, the breaker cooldown elapses, and
	// the half-open probe brings the shard back into service
	fp.ClearAll()
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 8; i++ {
		get(t, s, "/api/v1/publications/"+darkID)
	}
	rec, _ = get(t, s, "/api/v1/publications/"+darkID)
	if rec.Code != http.StatusOK {
		t.Fatalf("recovered lookup = %d", rec.Code)
	}
	if rec, _ := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after recovery = %d", rec.Code)
	}

	if audit := docstore.AuditWrites(sys.Pubs, acked, rejected); !audit.Clean() {
		t.Fatalf("write audit after recovery: %+v", audit)
	}

	// the earlier partial page must not have been cached: the same query
	// now serves the full corpus
	rec, body = get(t, s, "/api/v1/search?q=study")
	if rec.Code != http.StatusOK || body["partial"] == true {
		t.Fatalf("post-recovery search = %d partial=%v", rec.Code, body["partial"])
	}
	if body["Total"].(float64) != 40 {
		t.Fatalf("post-recovery Total = %v, want 40", body["Total"])
	}

	// the robustness counters saw the incident
	if reg.Counter("breaker_open").Value() < 1 {
		t.Fatal("breaker_open never incremented")
	}
	if reg.Counter("partial_responses").Value() < 1 {
		t.Fatal("partial_responses never incremented")
	}
}

// TestRetryAfterClampedToWholeSecond pins the regression where a
// sub-second RetryAfter config rendered "Retry-After: 0" — an
// immediate-retry invitation — on shed responses.
func TestRetryAfterClampedToWholeSecond(t *testing.T) {
	s, _ := liteServer(t, Config{MaxInflightSearch: 1, RetryAfter: 100 * time.Millisecond})
	if ok, _ := s.adms[classSearch].acquire(PriorityHigh); !ok {
		t.Fatal("could not pre-fill the search class")
	}
	defer s.adms[classSearch].release()
	rec, _ := get(t, s, "/api/v1/search?q=vaccine")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated search = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (sub-second config must clamp up)", ra)
	}
}

// TestTableMatchesErrorStatuses: only an unsearchable query is the
// caller's 400; an unknown publication is 404 and a publication on a
// dark shard 503, as for the publication resource itself — for its table
// matches and for its nodes.
func TestTableMatchesErrorStatuses(t *testing.T) {
	s, sys, fp, _ := chaosServer(t)
	_, darkID := darkShard(sys, fp)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/api/v1/publications/c01/tables?q=the+of", http.StatusBadRequest},
		{"/api/v1/publications/nosuchid/tables?q=covid", http.StatusNotFound},
		{"/api/v1/publications/" + darkID + "/tables?q=covid", http.StatusServiceUnavailable},
		// the nodes listing used to answer every lookup failure with 404
		{"/api/v1/publications/c01/nodes", http.StatusOK},
		{"/api/v1/publications/nosuchid/nodes", http.StatusNotFound},
		{"/api/v1/publications/" + darkID + "/nodes", http.StatusServiceUnavailable},
	} {
		if rec, body := get(t, s, tc.path); rec.Code != tc.want {
			t.Fatalf("%s = %d (%v), want %d", tc.path, rec.Code, body, tc.want)
		}
	}
}
