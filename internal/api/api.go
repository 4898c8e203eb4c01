// Package api exposes the COVIDKG system over HTTP: the interactive
// knowledge-graph browse/search surface the paper's front-end uses
// (№9/10 in Figure 1) and the programmatic API releasing search,
// publications, and pre-trained models to downstream users (№11/13).
//
// The surface lives under /api/v1/ and nowhere else. Every route runs
// inside a request lifecycle — per-route-class deadline, bounded
// in-flight admission control, and a request id that flows through the
// context into error envelopes and metrics.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"covidkg/internal/core"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
	"covidkg/internal/pipeline"
	"covidkg/internal/search"
)

// Server wraps a core system with HTTP handlers.
type Server struct {
	sys      *core.System
	cfg      Config
	met      *metrics.Registry
	mux      *http.ServeMux
	handler  http.Handler
	idPrefix string
	adms     [numClasses]*admitter
}

// NewServer builds the handler tree over a (typically trained) system
// with the default lifecycle configuration.
func NewServer(sys *core.System) *Server {
	return NewServerWith(sys, DefaultConfig())
}

// NewServerWith builds the handler tree with an explicit lifecycle
// configuration; zero Config fields take their defaults.
func NewServerWith(sys *core.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		sys:      sys,
		cfg:      cfg,
		met:      cfg.Metrics,
		mux:      http.NewServeMux(),
		idPrefix: newRequestIDPrefix(),
	}
	for class, max := range map[routeClass]int{
		classLight:  cfg.MaxInflightLight,
		classSearch: cfg.MaxInflightSearch,
		classHeavy:  cfg.MaxInflightHeavy,
	} {
		if max > 0 {
			s.adms[class] = &admitter{capacity: int64(max)}
		}
	}

	// healthz (liveness) and readyz (readiness) are exempt from
	// versioning and admission control: load balancers must be able to
	// probe a saturated server.
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)

	s.route("GET", "/stats", classLight, cfg.LightTimeout, s.handleStats)
	s.route("GET", "/metrics", classLight, cfg.LightTimeout, s.handleMetrics)
	s.route("GET", "/search", classSearch, cfg.SearchTimeout, s.handleSearch)
	s.route("GET", "/publications/{id}", classLight, cfg.LightTimeout, s.handlePublication)
	s.route("GET", "/publications/{id}/tables", classSearch, cfg.SearchTimeout, s.handleTableMatches)
	s.route("GET", "/publications/{id}/nodes", classLight, cfg.LightTimeout, s.handlePubNodes)
	s.route("GET", "/kg", classHeavy, cfg.AggregateTimeout, s.handleGraph)
	s.route("GET", "/kg/search", classSearch, cfg.SearchTimeout, s.handleGraphSearch)
	s.route("GET", "/kg/nodes/{id}", classLight, cfg.LightTimeout, s.handleKGNodes)
	s.route("POST", "/kg/query", classSearch, cfg.SearchTimeout, s.handleKGQuery)
	s.route("POST", "/kg/hypotheses", classSearch, cfg.SearchTimeout, s.handleKGHypotheses)
	s.route("GET", "/reviews", classLight, cfg.LightTimeout, s.handleReviews)
	s.route("POST", "/reviews/{id}/approve", classLight, cfg.LightTimeout, s.handleApprove)
	s.route("POST", "/reviews/{id}/reject", classLight, cfg.LightTimeout, s.handleReject)
	s.route("POST", "/aggregate", classHeavy, cfg.AggregateTimeout, s.handleAggregate)
	s.route("POST", "/publications", classHeavy, cfg.IngestTimeout, s.handleIngest)
	s.route("GET", "/bias", classHeavy, cfg.AggregateTimeout, s.handleBias)
	s.route("GET", "/models", classLight, cfg.LightTimeout, s.handleModels)
	s.route("GET", "/models/{name}", classHeavy, cfg.AggregateTimeout, s.handleModel)
	s.mux.HandleFunc("GET /", s.handleIndex)

	// request ids outermost so metrics and recovered panics carry them;
	// metrics wraps recover so recovered panics still record their 500
	s.handler = s.requestIDMiddleware(metricsMiddleware(s.met, recoverMiddleware(s.mux)))
	return s
}

// route mounts a lifecycle-wrapped handler at /api/v1<path>.
func (s *Server) route(method, path string, class routeClass, timeout time.Duration, h http.HandlerFunc) {
	s.mux.HandleFunc(method+" /api/v1"+path, s.lifecycle(class, timeout, h))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// writeJSON encodes v into a pooled buffer, then writes it with
// writeBody. A value encoding/json refuses (a NaN or an infinite number)
// is answered 500 internal with the request id instead: the status line
// never goes out before the body is known, and the encoder writes
// nothing of a value it refuses.
func writeJSON(w http.ResponseWriter, status int, v any) {
	bp := bodies.Get().(*[]byte)
	buf := bytes.NewBuffer(*bp)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		env := map[string]string{"error": "encode response: " + err.Error(), "code": "internal"}
		if id := w.Header().Get("X-Request-ID"); id != "" {
			env["request_id"] = id
		}
		status = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(env) // a map of strings always encodes
	}
	writePooled(w, status, bp, buf.Bytes())
}

// bodies recycles response buffers: writeBody's one Write copies a body
// out, so its buffer can carry the next response. Each holds an empty
// slice with room.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// writePooled writes body, built in the buffer bp came with, and hands
// the buffer back unless it grew past 1 MiB, which it would keep pinned.
func writePooled(w http.ResponseWriter, status int, bp *[]byte, body []byte) {
	writeBody(w, status, body)
	if cap(body) <= 1<<20 {
		*bp = body[:0]
		bodies.Put(bp)
	}
}

// writeBody sends an encoded JSON body in one Write, with its
// Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is a client gone: no one is left to tell
}

// errCode maps a status onto the envelope's machine-readable code.
func errCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_query"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case StatusClientClosedRequest:
		return "cancelled"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	default:
		return "internal"
	}
}

// writeErr emits the uniform error envelope:
//
//	{"error": "...", "code": "bad_query", "request_id": "..."}
func writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	env := map[string]string{
		"error": err.Error(),
		"code":  errCode(status),
	}
	if r != nil {
		if id := RequestIDFromContext(r.Context()); id != "" {
			env["request_id"] = id
		}
	}
	writeJSON(w, status, env)
}

// handleHealth is the liveness probe: the process is up and serving.
// It says nothing about shard health — that is readyz's job — so
// orchestrators never restart a process that is merely degraded.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: 200 when every shard is serving,
// 503 otherwise. Either way the body carries the per-shard connection
// states (connected, breaker-open, or unreachable) so an operator can
// see exactly which shard server is dark. In process the shard servers
// are listed with their mem:shardN addresses.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	conns := s.sys.ShardConnHealth(r.Context())
	status, state := http.StatusOK, "ready"
	for _, c := range conns {
		if !c.Ready() {
			status, state = http.StatusServiceUnavailable, "degraded"
			break
		}
	}
	body := map[string]any{"status": state, "shards": conns}
	if s.sys.Remote() {
		body["mode"] = "shardnet"
	}
	writeJSON(w, status, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	conns := s.sys.ShardConnHealth(r.Context())
	perShard := make([]int, len(conns))
	for i, c := range conns {
		perShard[i] = c.Docs
	}
	out := map[string]any{
		"publications": s.sys.Pubs.Count(),
		"kg_nodes":     s.sys.Graph.Size(),
		"per_shard":    perShard,
	}
	if s.sys.Remote() {
		out["mode"] = "shardnet"
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSearch dispatches to the three engines via ?engine=. The request
// context — deadline, client cancellation — rides through the whole
// pipeline: a cancelled query stops scanning within one check interval
// and is never cached. The engine answers with the encoded body, so a
// cache hit is written without encoding anything.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	page := 1
	if p := q.Get("page"); p != "" { // Atoi("") allocates its error
		page, _ = strconv.Atoi(p)
	}
	engine := q.Get("engine")
	if engine == "" {
		engine = "all"
	}
	body, partial, err := s.sys.Search.SearchBody(r.Context(), engine, q.Get("q"), search.FieldQuery{
		Title:    q.Get("title"),
		Abstract: q.Get("abstract"),
		Caption:  q.Get("caption"),
	}, page)
	if err != nil {
		// bad input (unknown engine, empty/unsearchable query) is the
		// caller's fault; a dead context gets its own statuses; anything
		// else is ours
		status := http.StatusInternalServerError
		if errors.Is(err, search.ErrBadQuery) {
			status = http.StatusBadRequest
		}
		writeErr(w, r, failStatus(err, status), err)
		return
	}
	// a dark shard degrades, never fails: the body carries
	// "partial": true + missing_shards, and the header lets callers
	// detect degradation without parsing the body
	if partial {
		w.Header().Set("X-Partial-Results", "true")
	}
	writeBody(w, http.StatusOK, body)
}

// handleMetrics exposes the process-wide counters, gauges, and latency
// histograms plus the query-cache statistics — the observability surface
// behind the BENCH_* numbers and the lifecycle counters (requests_shed,
// requests_cancelled, deadline_exceeded, inflight_*). Runtime vitals
// (goroutines, heap-in-use, GC pause p99) are captured per request so
// long soaks can watch for leaks.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	rt := metrics.CaptureRuntimeHealth()
	rt.SetGauges(s.met)
	snap := s.met.Snapshot()
	snap["runtime"] = rt
	snap["search_cache"] = s.sys.Search.CacheStats()
	// read from the engine's own registry, which may differ from the
	// server's
	snap["search_scoring"] = s.sys.Search.ScoringStats()
	writeJSON(w, http.StatusOK, snap)
}

// pubErrStatus maps a failed publication lookup. A point lookup cannot
// degrade to a partial result: when the owning shard is dark the honest
// answer is 503, distinct from 404 (the document is not gone, just
// unreachable); only an unsearchable query is the caller's 400.
func pubErrStatus(err error) int {
	switch {
	case errors.Is(err, search.ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, docstore.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, docstore.ErrShardUnavailable):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func (s *Server) handlePublication(w http.ResponseWriter, r *http.Request) {
	d, err := s.sys.Pubs.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, r, pubErrStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// handleTableMatches returns the matched-cell coordinates of one
// publication's tables for a query — the data behind Figure 4's red
// highlighting.
func (s *Server) handleTableMatches(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	ms, err := s.sys.Search.TableCellMatchesContext(r.Context(), r.PathValue("id"), q)
	if err != nil {
		writeErr(w, r, failStatus(err, pubErrStatus(err)), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tables": ms})
}

// handlePubNodes lists the KG nodes whose provenance cites a
// publication — from a paper to everything the graph learned from it.
func (s *Server) handlePubNodes(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.sys.Pubs.Get(id); err != nil {
		writeErr(w, r, pubErrStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": s.sys.Graph.NodesByPaper(id)})
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	data, err := s.sys.Graph.MarshalJSON()
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, http.StatusOK, data)
}

// handleGraphSearch answers KG node search with root paths, paginated:
// the result set was previously unbounded (every matching node in one
// response), now it pages through the standard envelope.
func (s *Server) handleGraphSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	hits, err := s.sys.Graph.SearchContext(r.Context(), q)
	if err != nil {
		writeKGErr(w, r, err, http.StatusInternalServerError)
		return
	}
	page, size := pageParams(r.URL.Query())
	writeJSON(w, http.StatusOK, paginateSlice(hits, page, size))
}

func (s *Server) handleReviews(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Fuser.Pending())
}

func (s *Server) reviewID(r *http.Request) (int, error) {
	return strconv.Atoi(r.PathValue("id"))
}

func (s *Server) handleApprove(w http.ResponseWriter, r *http.Request) {
	id, err := s.reviewID(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	target := r.URL.Query().Get("target")
	if target == "" {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("missing target node id"))
		return
	}
	if err := s.sys.Fuser.Approve(id, target); err != nil {
		writeKGErr(w, r, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "approved"})
}

func (s *Server) handleReject(w http.ResponseWriter, r *http.Request) {
	id, err := s.reviewID(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if err := s.sys.Fuser.Reject(id); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "rejected"})
}

// handleIngest accepts new publication documents (№12 in Figure 1: new
// information arriving from the Web), stores and indexes them, and
// incrementally refreshes the knowledge graph from their tables.
//
// Two body framings are supported: a JSON array of publications
// (default), and newline-delimited JSON — one publication per line —
// when the Content-Type mentions ndjson or jsonl. Either way the body
// is decoded incrementally and ingested in batches, and the response
// reports a per-document outcome: a batch with one bad document no
// longer answers a bare 500 after silently storing everything before
// it. Partial success is 200 with per-document errors listed; 400 is
// reserved for requests where nothing at all was ingested.
// Backpressure is inherited from the route's heavy admission class:
// when too many heavy requests are in flight the request is rejected
// up front with 429 rather than queued without bound.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ndjson := strings.Contains(r.Header.Get("Content-Type"), "ndjson") ||
		strings.Contains(r.Header.Get("Content-Type"), "jsonl")
	dec := json.NewDecoder(r.Body)

	var (
		results   []core.DocResult
		inserted  int
		failed    int
		total     int
		decodeErr error
		batch     []jsondoc.Doc
		st        core.BuildStats
	)
	// flush ingests and enriches one batch: the body streams through a
	// window of core.IngestBatchSize documents instead of materializing,
	// so a very large upload is bounded by one batch, not the body size.
	flush := func() {
		if len(batch) == 0 {
			return
		}
		base := total - len(batch)
		start := time.Now()
		rep := s.sys.IngestDocs(batch)
		s.met.Histogram("ingest.store").Observe(time.Since(start))
		for _, res := range rep.Results {
			res.Index += base
			results = append(results, res)
		}
		inserted += rep.Inserted
		failed += rep.Failed
		batch = batch[:0]
		if rep.Inserted > 0 {
			start = time.Now()
			st.Add(s.sys.EnrichNew())
			s.met.Histogram("ingest.enrich").Observe(time.Since(start))
		}
	}

	if !ndjson {
		tok, err := dec.Token()
		if err != nil {
			writeErr(w, r, http.StatusBadRequest,
				fmt.Errorf("bad request body (want a JSON array of publications): %w", err))
			return
		}
		if d, ok := tok.(json.Delim); !ok || d != '[' {
			writeErr(w, r, http.StatusBadRequest,
				fmt.Errorf("bad request body: want a JSON array of publications, got %v", tok))
			return
		}
	}
	for {
		if r.Context().Err() != nil {
			writeErr(w, r, http.StatusGatewayTimeout, r.Context().Err())
			return
		}
		if !ndjson && !dec.More() {
			break
		}
		var d jsondoc.Doc
		if err := dec.Decode(&d); err != nil {
			if ndjson && errors.Is(err, io.EOF) {
				break
			}
			decodeErr = fmt.Errorf("document %d: %w", total, err)
			break
		}
		total++
		batch = append(batch, d)
		if len(batch) >= core.IngestBatchSize {
			flush()
		}
	}
	flush()

	if total == 0 {
		err := fmt.Errorf("no publications in request")
		if decodeErr != nil {
			err = fmt.Errorf("bad request body: %w", decodeErr)
		}
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if inserted == 0 {
		err := core.IngestReport{Results: results, Failed: failed}.Err()
		if err == nil {
			err = fmt.Errorf("no publications ingested")
		}
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	payload := map[string]any{
		"ingested":    inserted,
		"failed":      failed,
		"results":     results,
		"tables":      st.Tables,
		"subtrees":    st.Subtrees,
		"fused":       st.Fused,
		"queued":      st.Queued,
		"nodes_added": st.NodesAdded,
	}
	if decodeErr != nil {
		// Documents after the malformed one were never seen; say so
		// instead of pretending the stream was fully consumed.
		payload["truncated"] = true
		payload["decode_error"] = decodeErr.Error()
	}
	writeJSON(w, http.StatusOK, payload)
}

// aggregateRequest is the POST /api/v1/aggregate body: a collection name
// (only "publications", the default, exists) and a MongoDB-dialect JSON
// pipeline (see pipeline.Compile).
type aggregateRequest struct {
	Collection string `json:"collection"`
	Pipeline   []any  `json:"pipeline"`
	Limit      int    `json:"limit"` // server-side result cap; default 100
}

// handleAggregate runs a compiled aggregation pipeline over the
// publications — the paper's "API users that might want to query the
// Knowledge Graph" surface (№11/13), speaking the same $-stage dialect
// the internal search engines use. The request context rides through
// pipeline execution, so a deadline or disconnect stops the scan.
func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	var req aggregateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Collection != "" && req.Collection != core.PubsCollection {
		writeErr(w, r, http.StatusNotFound, fmt.Errorf("collection %q does not exist", req.Collection))
		return
	}
	p, err := pipeline.Compile(req.Pipeline)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	limit := req.Limit
	if limit <= 0 || limit > 1000 {
		limit = 100
	}
	p.Append(pipeline.Limit(limit))
	out, err := p.RunContext(r.Context(), s.sys.Pubs)
	if err != nil {
		writeErr(w, r, failStatus(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": out, "n": len(out)})
}

func (s *Server) handleBias(w http.ResponseWriter, r *http.Request) {
	rep, err := s.sys.AuditBias(r.Context())
	if err != nil {
		writeErr(w, r, failStatus(err, http.StatusInternalServerError), err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.sys.ModelNames()})
}

// handleModel serves one exported model artifact. Only the requested
// model is serialized (core.ExportModel), and the download filename is
// sanitized so a hostile path segment cannot inject header syntax.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, err := s.sys.ExportModel(name)
	if err != nil {
		if errors.Is(err, core.ErrModelNotFound) {
			writeErr(w, r, http.StatusNotFound, err)
			return
		}
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	fname := sanitizeID(name)
	if fname == "" {
		fname = "model"
	}
	w.Header().Set("Content-Disposition", `attachment; filename="`+fname+`.json"`)
	writeBody(w, http.StatusOK, m.Data)
}
