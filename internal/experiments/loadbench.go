package experiments

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"time"

	"covidkg/internal/api"
	"covidkg/internal/core"
	"covidkg/internal/metrics"
)

// LoadBenchResult is the machine-readable output of RunLoadBench,
// serialized into BENCH_load.json by cmd/benchrunner. It records how the
// request lifecycle behaves under deliberate overload: how many requests
// were shed by admission control, how many hit the route deadline, and
// how many were abandoned by the client — both as client-observed
// statuses and as the server's own lifecycle counters.
type LoadBenchResult struct {
	Docs        int `json:"docs"`
	Concurrency int `json:"concurrency"`  // concurrent clients in the shed phase
	InflightCap int `json:"inflight_cap"` // MaxInflightSearch during the shed phase
	Requests    int `json:"requests"`     // total requests issued across phases

	// Client-observed statuses.
	OK              int  `json:"ok"`
	Shed            int  `json:"shed"`             // 429s
	DeadlineClient  int  `json:"deadline_504"`     // 504s
	CancelledClient int  `json:"cancelled_aborts"` // requests the client gave up on
	OtherStatus     int  `json:"other_status"`     // anything unexpected
	RetryAfterSeen  bool `json:"retry_after_seen"` // every 429 carried Retry-After

	// Server lifecycle counters (from the injected metrics registry).
	RequestsShed      int64 `json:"requests_shed"`
	RequestsCancelled int64 `json:"requests_cancelled"`
	DeadlineExceeded  int64 `json:"deadline_exceeded"`
}

// RunLoadBench drives a real HTTP server through three overload
// regimes — admission-control saturation, sub-millisecond deadlines, and
// client aborts — and reports the lifecycle counters. It validates the
// serving path's back-pressure story end to end: shed requests get 429 +
// Retry-After, slow work dies at its deadline with 504, and abandoned
// requests stop consuming the pipeline.
func RunLoadBench(quick bool) LoadBenchResult {
	nDocs := 2000
	concurrency := 32
	rounds := 4
	if quick {
		nDocs = 400
		concurrency = 16
		rounds = 2
	}

	sys := core.NewSystem(core.DefaultConfig())
	ingestCorpus(sys, 77, nDocs)
	// no caching: every search must pay the full pipeline, otherwise the
	// warm cache answers faster than the semaphore can saturate
	sys.Search.SetCacheLimits(0, 0)

	reg := metrics.NewRegistry()
	res := LoadBenchResult{
		Docs:           nDocs,
		Concurrency:    concurrency,
		InflightCap:    2,
		RetryAfterSeen: true,
	}

	// ---- phase 1: saturation → shedding -----------------------------
	shedSrv := httptest.NewServer(api.NewServerWith(sys, api.Config{
		MaxInflightSearch: res.InflightCap,
		SearchTimeout:     10 * time.Second,
		Metrics:           reg,
	}))
	var mu sync.Mutex
	record := func(status int, retryAfter string) {
		mu.Lock()
		defer mu.Unlock()
		res.Requests++
		switch status {
		case http.StatusOK:
			res.OK++
		case http.StatusTooManyRequests:
			res.Shed++
			if retryAfter == "" {
				res.RetryAfterSeen = false
			}
		case http.StatusGatewayTimeout:
			res.DeadlineClient++
		default:
			res.OtherStatus++
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := benchHTTPQueries[(c+r)%len(benchHTTPQueries)]
				resp, err := http.Get(shedSrv.URL + "/api/v1/search?q=" + url.QueryEscape(q))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				record(resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		}(c)
	}
	wg.Wait()
	shedSrv.Close()

	// ---- phase 2: expired deadlines ---------------------------------
	deadSrv := httptest.NewServer(api.NewServerWith(sys, api.Config{
		SearchTimeout: time.Nanosecond, // expires before the first scan check
		Metrics:       reg,
	}))
	for i := 0; i < 8; i++ {
		resp, err := http.Get(deadSrv.URL + "/api/v1/search?q=vaccine")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		record(resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	deadSrv.Close()

	// ---- phase 3: client aborts -------------------------------------
	// Over a real socket the corpus is small enough that the handler
	// outruns disconnect propagation, so drive the handler in-process
	// with an already-cancelled request context — byte-for-byte what
	// net/http hands a handler whose client hung up.
	abortHandler := api.NewServerWith(sys, api.Config{
		SearchTimeout: 10 * time.Second,
		Metrics:       reg,
	})
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // the client is already gone
		req := httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/api/v1/search?page=%d&q=vaccine", i+1), nil).WithContext(ctx)
		rw := httptest.NewRecorder()
		abortHandler.ServeHTTP(rw, req)
		mu.Lock()
		res.Requests++
		if rw.Code == api.StatusClientClosedRequest {
			res.CancelledClient++
		} else {
			res.OtherStatus++
		}
		mu.Unlock()
	}

	res.RequestsShed = reg.Counter("requests_shed").Value()
	res.RequestsCancelled = reg.Counter("requests_cancelled").Value()
	res.DeadlineExceeded = reg.Counter("deadline_exceeded").Value()
	return res
}
