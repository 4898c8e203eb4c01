package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"time"

	"covidkg/internal/api"
	"covidkg/internal/breaker"
	"covidkg/internal/core"
	"covidkg/internal/docstore"
	"covidkg/internal/failpoint"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// SoakSLOs are the service-level objectives the soak is gated on. The
// latency budgets are client-observed p99s per route class, sized well
// under the route deadlines (2s/5s/10s) but generously above healthy
// latency so only genuine regressions breach them on a loaded CI box.
type SoakSLOs struct {
	AvailabilityPct float64 `json:"availability_pct"` // ≥, excluding intentional 429s
	LightP99Ms      float64 `json:"light_p99_ms"`
	SearchP99Ms     float64 `json:"search_p99_ms"`
	HeavyP99Ms      float64 `json:"heavy_p99_ms"`
}

// defaultSoakSLOs is the gate applied by RunSoakBench.
var defaultSoakSLOs = SoakSLOs{
	AvailabilityPct: 99.9,
	LightP99Ms:      500,
	SearchP99Ms:     1500,
	HeavyP99Ms:      3000,
}

// SoakTenantStats is the per-tenant slice of the soak: what the client
// observed for that tenant, and what the server's own counters say it
// did. QuotaViolated is true when the server admitted more requests than
// the tenant's configured quota — the invariant the CAS in tryQuota
// exists to hold.
type SoakTenantStats struct {
	ID       string  `json:"id"`
	Priority string  `json:"priority"`
	Quota    int64   `json:"quota"` // 0 = unlimited
	RatePerS float64 `json:"rate_per_sec"`

	// Client-observed.
	Requests    int     `json:"requests"`
	OK          int     `json:"ok"`
	RateLimited int     `json:"rate_limited_429"`
	QuotaDenied int     `json:"quota_denied_429"`
	Shed        int     `json:"shed_429"`
	Failed      int     `json:"failed"` // 5xx + transport errors
	P99Us       float64 `json:"p99_us"` // over this tenant's 200s

	// Server-side counters for the same tenant.
	ServedCounter int64 `json:"served_counter"`
	QuotaViolated bool  `json:"quota_violated"`

	AvailabilityPct float64 `json:"availability_pct"`
}

// SoakClassStats is the client-observed latency profile of one route
// class across the whole soak, against its SLO budget.
type SoakClassStats struct {
	Class    string  `json:"class"`
	Requests int     `json:"requests"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us"`
	BudgetMs float64 `json:"budget_ms"`
	Breached bool    `json:"breached"`
}

// SoakBenchResult is the machine-readable output of RunSoakBench,
// serialized into BENCH_soak.json by cmd/benchrunner. Pass is the
// SLO-gate verdict; Breaches lists every objective that failed, so a
// red run explains itself.
type SoakBenchResult struct {
	Seed     int64 `json:"seed"`
	Docs     int   `json:"docs"`
	Shards   int   `json:"shards"`
	Replicas int   `json:"replicas"`

	DurationMs float64 `json:"duration_ms"`

	// Aggregate client-observed traffic.
	Requests    int `json:"requests"`
	OK          int `json:"ok"`
	RateLimited int `json:"rate_limited_429"`
	QuotaDenied int `json:"quota_denied_429"`
	Shed        int `json:"shed_429"`
	Failed      int `json:"failed"` // 5xx + transport errors
	Sessions    int `json:"sessions"`
	// Availability over requests the server was obliged to serve: 429s
	// are correct back-pressure, not unavailability.
	AvailabilityPct float64 `json:"availability_pct"`

	Tenants []SoakTenantStats `json:"tenants"`
	Classes []SoakClassStats  `json:"classes"`

	// Chaos + live-ingest accounting.
	ReplicaKills    int  `json:"replica_kills"`
	IngestAttempted int  `json:"ingest_attempted"`
	IngestAcked     int  `json:"ingest_acked"`
	IngestRejected  int  `json:"ingest_rejected"`
	LostWrites      int  `json:"lost_writes"`
	GhostWrites     int  `json:"ghost_writes"`
	ResyncIdentical bool `json:"resync_identical"`

	// Fairness invariants.
	AdmissionInversions int64 `json:"admission_inversions"`
	QuotaViolations     int   `json:"quota_violations"`

	Runtime metrics.RuntimeHealth `json:"runtime"`

	SLOs     SoakSLOs `json:"slos"`
	Pass     bool     `json:"pass"`
	Breaches []string `json:"breaches"`
}

// soakTenant is one tenant's traffic contract in the soak mix.
type soakTenant struct {
	id       string
	limits   api.TenantLimits
	sessions int  // concurrent session workers
	rounds   int  // sessions replayed per worker
	abusive  bool // spams bare searches instead of replaying sessions
}

// soakPage is the subset of the search page body a session needs to
// chain into a document fetch. Most search fields marshal with their Go
// names (no json tags on search.Page/Result), hence the capitalized key.
type soakPage struct {
	Results []struct {
		DocID string
	}
}

// RunSoakBench replays realistic multi-step user sessions (search →
// paginate → fetch document → KG browse → model export) for a mix of
// tenants with different priorities, rates, and quotas — all while a
// chaos loop kills and recovers one replica at a time and a background
// writer streams new documents through the ingest path. It then audits
// the system (write audit, resync, per-tenant counters) and gates the
// run on the SLOs in defaultSoakSLOs: availability, per-class p99
// budgets, zero lost/ghost writes, zero quota violations, zero priority
// inversions. The mix deliberately includes an abusive low-priority
// tenant driving ~10× its quota; the gate proves it cannot drag the
// high-priority tenant out of SLO.
func RunSoakBench(quick bool) SoakBenchResult {
	const seed = 271
	nDocs := 1500
	killCycles := 8
	killHold := 40 * time.Millisecond
	ingestDocs := 120
	goldSessions, goldRounds := 4, 6
	silverSessions, silverRounds := 4, 6
	var bronzeQuota int64 = 60
	if quick {
		nDocs = 300
		killCycles = 4
		killHold = 25 * time.Millisecond
		ingestDocs = 40
		goldSessions, goldRounds = 2, 4
		silverSessions, silverRounds = 2, 4
		bronzeQuota = 25
	}

	fp := failpoint.New(seed)
	reg := metrics.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Failpoints = fp
	cfg.Metrics = reg
	cfg.Breaker = breaker.Config{Threshold: 2, Cooldown: 25 * time.Millisecond}
	cfg.HedgeDelay = 2 * time.Millisecond
	// shrink the model stack so the session's export step serves a real
	// artifact without dominating the soak's wall clock
	cfg.VocabSize = 500
	cfg.TrainTables = 30
	sys := core.NewSystem(cfg)
	ingestCorpus(sys, seed, nDocs)
	if _, err := sys.TrainModels(); err != nil {
		panic(err)
	}
	// no caching: a warm cache would hide the degraded read path the
	// chaos loop exists to exercise
	sys.Search.SetCacheLimits(0, 0)

	// The tenant mix: a priority tenant that must stay in SLO no matter
	// what, a standard tenant, and an abusive low-priority tenant that
	// drives ~10× its quota as fast as its bucket allows.
	tenants := []soakTenant{
		{id: "gold", limits: api.TenantLimits{
			Priority: api.PriorityHigh, RatePerSec: 500, Burst: 100,
		}, sessions: goldSessions, rounds: goldRounds},
		{id: "silver", limits: api.TenantLimits{
			Priority: api.PriorityStandard, RatePerSec: 200, Burst: 50,
		}, sessions: silverSessions, rounds: silverRounds},
		{id: "bronze", limits: api.TenantLimits{
			Priority: api.PriorityLow, RatePerSec: 1000, Burst: 200,
			Quota: bronzeQuota,
		}, sessions: 4, abusive: true},
	}
	tcfg := map[string]api.TenantLimits{}
	for _, t := range tenants {
		tcfg[t.id] = t.limits
	}

	srv := httptest.NewServer(api.NewServerWith(sys, api.Config{
		SearchTimeout: 10 * time.Second,
		Tenants:       tcfg,
		Metrics:       reg,
	}))
	defer srv.Close()

	res := SoakBenchResult{
		Seed:            seed,
		Docs:            nDocs,
		Shards:          cfg.Shards,
		Replicas:        cfg.Replicas,
		SLOs:            defaultSoakSLOs,
		ResyncIdentical: true,
	}

	// -------------------------------------------------- shared recording
	type tenantAcc struct {
		stats SoakTenantStats
		lats  []time.Duration
	}
	accs := map[string]*tenantAcc{}
	for _, t := range tenants {
		accs[t.id] = &tenantAcc{stats: SoakTenantStats{
			ID:       t.id,
			Priority: t.limits.Priority.String(),
			Quota:    t.limits.Quota,
			RatePerS: t.limits.RatePerSec,
		}}
	}
	classLats := map[string][]time.Duration{}
	var mu sync.Mutex

	client := srv.Client()
	// get issues one request as a tenant, records it under the tenant and
	// the route class, and returns the body for 200s (nil otherwise).
	get := func(tenant, class, path string) []byte {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			panic(err)
		}
		req.Header.Set("X-Tenant-ID", tenant)
		t0 := time.Now()
		resp, err := client.Do(req)
		lat := time.Since(t0)

		mu.Lock()
		defer mu.Unlock()
		acc := accs[tenant]
		acc.stats.Requests++
		res.Requests++
		if err != nil {
			acc.stats.Failed++
			res.Failed++
			return nil
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		switch {
		case resp.StatusCode == http.StatusOK:
			acc.stats.OK++
			res.OK++
			acc.lats = append(acc.lats, lat)
			classLats[class] = append(classLats[class], lat)
			return body
		case resp.StatusCode == http.StatusTooManyRequests:
			// the error envelope's code distinguishes the three 429 flavors
			var env struct {
				Code string `json:"code"`
			}
			json.Unmarshal(body, &env)
			switch env.Code {
			case "rate_limited":
				acc.stats.RateLimited++
				res.RateLimited++
			case "quota_exceeded":
				acc.stats.QuotaDenied++
				res.QuotaDenied++
			default:
				acc.stats.Shed++
				res.Shed++
			}
		default:
			acc.stats.Failed++
			res.Failed++
		}
		return nil
	}

	// ------------------------------------------------------ the session
	rootID := sys.Graph.RootID()
	modelNames := sys.ModelNames()
	// session replays one realistic user journey; rng drives query choice
	// and whether this user pulls a full model artifact at the end.
	session := func(tenant string, rng *benchRandSource) {
		q := benchHTTPQueries[rng.next()%len(benchHTTPQueries)]
		esc := url.QueryEscape(q)
		body := get(tenant, "search", "/api/v1/search?q="+esc)
		get(tenant, "search", "/api/v1/search?q="+esc+"&page=2")
		var pg soakPage
		if body != nil {
			json.Unmarshal(body, &pg)
		}
		if len(pg.Results) > 0 {
			get(tenant, "light", "/api/v1/publications/"+url.PathEscape(pg.Results[0].DocID))
		}
		get(tenant, "search", "/api/v1/kg/search?q="+esc)
		get(tenant, "light", "/api/v1/kg/nodes/"+url.PathEscape(rootID)+"?expand=children")
		get(tenant, "light", "/api/v1/models")
		if len(modelNames) > 0 && rng.next()%3 == 0 {
			get(tenant, "heavy", "/api/v1/models/"+url.PathEscape(modelNames[rng.next()%len(modelNames)]))
		}
	}

	// ------------------------------------------------------- chaos loop
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		// kill one replica at a time, rotating across shards: quorum
		// (R/2+1 of 3) always holds, so availability must not move.
		for i := 0; i < killCycles; i++ {
			target := docstore.ReplicaTarget(i%cfg.Shards, 1+i%(cfg.Replicas-1))
			fp.Set(target, failpoint.Rule{Down: true})
			mu.Lock()
			res.ReplicaKills++
			mu.Unlock()
			select {
			case <-time.After(killHold):
			case <-stopChaos:
				fp.ClearAll()
				return
			}
			fp.ClearAll()
			select {
			case <-time.After(killHold / 2):
			case <-stopChaos:
				return
			}
		}
	}()

	// ------------------------------------------------ background writer
	stopWriter := make(chan struct{})
	var writerWG sync.WaitGroup
	var acked, rejected []string
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; i < ingestDocs; i++ {
			select {
			case <-stopWriter:
				return
			default:
			}
			id := fmt.Sprintf("soak-w-%d", i)
			err := sys.IngestDocs([]jsondoc.Doc{{
				"_id": id, "title": "soak live write " + id,
				"abstract": "document streamed in during the soak by the background writer",
			}}).Err()
			mu.Lock()
			res.IngestAttempted++
			if err != nil {
				res.IngestRejected++
				rejected = append(rejected, id)
			} else {
				res.IngestAcked++
				acked = append(acked, id)
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// --------------------------------------------------- the soak itself
	start := time.Now()
	var wg sync.WaitGroup
	for ti, t := range tenants {
		for w := 0; w < t.sessions; w++ {
			wg.Add(1)
			go func(t soakTenant, ti, w int) {
				defer wg.Done()
				rng := newBenchRandSource(seed + int64(97*ti+w))
				if t.abusive {
					// drive ~10× the quota as bare searches: the quota
					// gate, not the client, must be what stops this tenant
					n := int(t.limits.Quota) * 10 / t.sessions
					for i := 0; i < n; i++ {
						q := benchHTTPQueries[rng.next()%len(benchHTTPQueries)]
						get(t.id, "search", "/api/v1/search?q="+url.QueryEscape(q))
					}
					return
				}
				for r := 0; r < t.rounds; r++ {
					session(t.id, rng)
					mu.Lock()
					res.Sessions++
					mu.Unlock()
				}
			}(t, ti, w)
		}
	}
	wg.Wait()
	close(stopChaos)
	close(stopWriter)
	chaosWG.Wait()
	writerWG.Wait()
	res.DurationMs = float64(time.Since(start).Microseconds()) / 1000

	// ------------------------------------------------- post-soak audits
	fp.ClearAll()
	rep := sys.Resync()
	res.ResyncIdentical = rep.Identical && sys.Store.ReplicasIdentical()
	audit := sys.Pubs.AuditWrites(acked, rejected)
	res.LostWrites = audit.Lost
	res.GhostWrites = audit.Ghost
	res.AdmissionInversions = reg.Counter("admission_inversions").Value()
	res.Runtime = metrics.CaptureRuntimeHealth()

	obliged := res.Requests - res.RateLimited - res.QuotaDenied - res.Shed
	if obliged > 0 {
		res.AvailabilityPct = 100 * float64(res.OK) / float64(obliged)
	}

	for _, t := range tenants {
		acc := accs[t.id]
		st := &acc.stats
		st.ServedCounter = reg.Counter("tenant." + t.id + ".served").Value()
		if t.limits.Quota > 0 && st.ServedCounter > t.limits.Quota {
			st.QuotaViolated = true
			res.QuotaViolations++
		}
		st.P99Us = p99Us(acc.lats)
		if ob := st.Requests - st.RateLimited - st.QuotaDenied - st.Shed; ob > 0 {
			st.AvailabilityPct = 100 * float64(st.OK) / float64(ob)
		} else {
			st.AvailabilityPct = 100
		}
		res.Tenants = append(res.Tenants, *st)
	}

	budgets := map[string]float64{
		"light":  defaultSoakSLOs.LightP99Ms,
		"search": defaultSoakSLOs.SearchP99Ms,
		"heavy":  defaultSoakSLOs.HeavyP99Ms,
	}
	for _, class := range []string{"light", "search", "heavy"} {
		lats := classLats[class]
		cs := SoakClassStats{
			Class:    class,
			Requests: len(lats),
			P50Us:    durPercentileUs(lats, 0.50),
			P99Us:    durPercentileUs(lats, 0.99),
			BudgetMs: budgets[class],
		}
		cs.Breached = cs.P99Us/1000 > cs.BudgetMs
		res.Classes = append(res.Classes, cs)
	}

	// ---------------------------------------------------------- the gate
	breach := func(format string, args ...any) {
		res.Breaches = append(res.Breaches, fmt.Sprintf(format, args...))
	}
	if res.AvailabilityPct < defaultSoakSLOs.AvailabilityPct {
		breach("availability %.3f%% < %.1f%%", res.AvailabilityPct, defaultSoakSLOs.AvailabilityPct)
	}
	for _, cs := range res.Classes {
		if cs.Breached {
			breach("%s p99 %.1fms > %.0fms budget", cs.Class, cs.P99Us/1000, cs.BudgetMs)
		}
	}
	if res.LostWrites > 0 {
		breach("%d acknowledged writes lost", res.LostWrites)
	}
	if res.GhostWrites > 0 {
		breach("%d rejected writes resurrected", res.GhostWrites)
	}
	if !res.ResyncIdentical {
		breach("replicas not identical after resync")
	}
	if res.QuotaViolations > 0 {
		breach("%d tenants served past their quota", res.QuotaViolations)
	}
	if res.AdmissionInversions > 0 {
		breach("%d priority inversions recorded", res.AdmissionInversions)
	}
	for _, ts := range res.Tenants {
		if ts.Priority == api.PriorityHigh.String() {
			if ts.AvailabilityPct < defaultSoakSLOs.AvailabilityPct {
				breach("priority tenant %s availability %.3f%% < %.1f%%",
					ts.ID, ts.AvailabilityPct, defaultSoakSLOs.AvailabilityPct)
			}
			if ts.P99Us/1000 > defaultSoakSLOs.SearchP99Ms {
				breach("priority tenant %s p99 %.1fms > %.0fms",
					ts.ID, ts.P99Us/1000, defaultSoakSLOs.SearchP99Ms)
			}
		}
	}
	res.Pass = len(res.Breaches) == 0
	return res
}

// benchRandSource is a tiny deterministic integer stream (xorshift64*)
// for schedule decisions inside concurrent soak workers. It exists
// because each worker needs its own seeded stream without the lock
// contention of sharing a *rand.Rand.
type benchRandSource struct{ s uint64 }

func newBenchRandSource(seed int64) *benchRandSource {
	if seed == 0 {
		seed = 1
	}
	return &benchRandSource{s: uint64(seed)}
}

func (r *benchRandSource) next() int {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return int((r.s * 0x2545F4914F6CDD1D) >> 33)
}
