package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"covidkg/internal/api"
	"covidkg/internal/cord19"
	"covidkg/internal/core"
	"covidkg/internal/jsondoc"
	"covidkg/internal/kg"
	"covidkg/internal/kgquery"
	"covidkg/internal/search"
	"covidkg/internal/textproc"
)

// The traced replay: the first traceInputs inputs of the workload at
// concurrency 1, or as many as fit in traceBudget (an ingest batch or a
// phrase query costs two orders of magnitude more than a cache hit).
const (
	traceInputs = 300
	traceBudget = 6 * time.Second
)

// span is one timed call into a layer. parent is the span it is
// logically inside (0 for a root); request groups the spans of one
// replayed input (0 for the layer probes, which belong to none). A
// child is recorded by pushing the same input through the layer's public
// entry point after the root returned, not from inside the program, so
// its interval lies after its parent's rather than within it.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	began time.Time
	spans []span
}

func (tr *tracer) do(name string, parent, request int, fn func()) int {
	start := time.Since(tr.began)
	fn()
	end := time.Since(tr.began)
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Name: name, StartNs: start.Nanoseconds(), EndNs: end.Nanoseconds(), Parent: parent, Request: request})
	return id
}

// byName returns the durations, in ms, of every span with the name.
func byName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes is each span's duration minus its direct children's, in ms,
// keyed by span id. Children are replayed one after another, so their
// durations add; a parent the replay out-ran reads 0, not negative.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.ms()
		if s.Parent != 0 {
			self[s.Parent] -= s.ms()
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

// unattributedShare is (Σ roots − Σ leaves) ÷ Σ roots over the replayed
// requests: the part of the round trips no layer span accounts for. A
// root without children is wholly unattributed.
func unattributedShare(spans []span) float64 {
	hasChild := map[int]bool{}
	for _, s := range spans {
		hasChild[s.Parent] = true
	}
	var roots, leaves float64
	for _, s := range spans {
		switch {
		case s.Request == 0:
		case s.Parent == 0:
			roots += s.ms()
		case !hasChild[s.ID]:
			leaves += s.ms()
		}
	}
	return ratio(roots-leaves, roots)
}

// bootSystem is the server tier in this process: the same boot sequence
// as cmd/covidkg-server over the given shard processes.
func bootSystem(ctx context.Context, shardAddrs []string) (*core.System, error) {
	cfg := core.DefaultConfig()
	cfg.Shards = numShards
	cfg.Replicas = 3
	cfg.Seed = serverSeed
	cfg.ShardAddrs = shardAddrs
	sys := core.NewSystem(cfg)
	if err := sys.Coord.Ping(ctx); err != nil {
		return nil, fmt.Errorf("shard tier not reachable: %w", err)
	}
	g := cord19.NewGenerator(serverSeed)
	corpus := g.Corpus(serverPubs)
	for i := 0; i < 3; i++ {
		corpus = append(corpus, g.SideEffectPaper([]string{"Pfizer-BioNTech", "Moderna", "AstraZeneca"}))
	}
	if err := sys.IngestPublications(corpus); err != nil {
		return nil, err
	}
	if _, err := sys.TrainModels(); err != nil {
		return nil, err
	}
	sys.BuildKG()
	return sys, nil
}

// tracedServer is the in-process server tier on a loopback listener.
type tracedServer struct {
	sys    *core.System
	shards *topology
	http   *http.Server
	base   string
}

func startTracedServer(ctx context.Context, env *runEnv) (*tracedServer, error) {
	shards, err := startShards(ctx, env.binDir, env.workDir)
	if err != nil {
		return nil, err
	}
	sys, err := bootSystem(ctx, shards.shardAddrs)
	if err != nil {
		shards.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		shards.stop()
		return nil, err
	}
	ts := &tracedServer{sys: sys, shards: shards, base: "http://" + ln.Addr().String(),
		http: &http.Server{Handler: api.NewServerWith(sys, api.Config{})}}
	go func() { _ = ts.http.Serve(ln) }() // returns ErrServerClosed at stop
	return ts, nil
}

func (ts *tracedServer) stop() {
	_ = ts.http.Close() // nothing is in flight at concurrency 1
	ts.sys.Coord.Close()
	ts.shards.stop()
}

// replayer pushes workload inputs through the HTTP surface (the root
// span) and then through each layer's public entry point.
type replayer struct {
	ctx context.Context
	tr  *tracer
	ts  *tracedServer
	c   *client
	req int

	cold       bool    // reset the query cache between root and direct call
	candidates float64 // Σ len(DocsWithAny)
	searches   float64
	scanned    float64 // Σ store size at EnrichNew
	batches    float64
}

// The engine's default cache bounds (search.defaultCacheEntries/Bytes,
// unexported): SetCacheLimits with them is how the cache is emptied.
const (
	cacheEntries = 1024
	cacheBytes   = 64 << 20
)

func (r *replayer) root(o op) int {
	r.req++
	return r.tr.do("http", 0, r.req, func() { r.c.exec(o) })
}

func (r *replayer) encode(parent int, v any) {
	r.tr.do("api.encode", parent, r.req, func() {
		if _, err := json.Marshal(v); err != nil {
			panic(err) // the same value the handler marshals
		}
	})
}

func (r *replayer) search(q searchQuery) {
	root := r.root(q.op())
	e := r.ts.sys.Search
	if r.cold {
		e.SetCacheLimits(cacheEntries, cacheBytes)
	}
	var page search.Page
	var err error
	call := r.tr.do("search.call", root, r.req, func() {
		switch q.shape {
		case opSearchTables:
			page, err = e.SearchTablesContext(r.ctx, q.text(), 1)
		case opSearchFields:
			page, err = e.SearchFieldsContext(r.ctx, search.FieldQuery{Title: q.terms[0], Abstract: q.terms[1] + " " + q.terms[2]}, 1)
		default:
			page, err = e.SearchAllContext(r.ctx, q.text(), 1)
		}
	})
	if err != nil {
		r.c.fail(q.op(), fmt.Errorf("direct engine call: %w", err))
		return
	}
	r.encode(root, page)
	if !r.cold {
		return // a cache hit runs none of the layers below
	}
	r.tr.do("textproc.parse_query", call, r.req, func() { textproc.ParseQuery(q.text()) })
	stems := make([]string, len(q.terms))
	for i, t := range q.terms {
		stems[i] = textproc.Stem(strings.ToLower(t))
	}
	ix := e.Index()
	r.tr.do("index.term_snapshots", call, r.req, func() { ix.TermSnapshots(stems) })
	r.tr.do("index.candidates", call, r.req, func() { r.candidates += float64(len(ix.DocsWithAny(stems))) })
	r.searches++
	ids := make([]string, len(page.Results))
	for i, res := range page.Results {
		ids[i] = res.DocID
	}
	if len(ids) > 0 {
		r.tr.do("shardnet.get_many_page", call, r.req, func() {
			if _, _, err := r.ts.sys.Coord.GetMany(r.ctx, ids); err != nil {
				r.c.fail(q.op(), fmt.Errorf("direct GetMany: %w", err))
			}
		})
	}
}

func (r *replayer) kgStep(o op) {
	root := r.root(o)
	sys := r.ts.sys
	switch o.kind {
	case opPubGet:
		var doc jsondoc.Doc
		r.tr.do("shardnet.get", root, r.req, func() {
			var err error
			if doc, err = sys.Coord.Get(o.id); err != nil {
				r.c.fail(o, fmt.Errorf("direct Get: %w", err))
			}
		})
		r.encode(root, doc)
	case opKGQuery:
		var q *kgquery.Query
		var err error
		r.tr.do("kgquery.parse", root, r.req, func() { q, err = kgquery.Parse(o.kg.text, o.kg.params) })
		if err != nil {
			r.c.fail(o, fmt.Errorf("direct Parse: %w", err))
			return
		}
		var snap *kg.Snapshot
		r.tr.do("kg.snapshot", root, r.req, func() { snap = sys.Graph.Snapshot() })
		var plan *kgquery.Plan
		r.tr.do("kgquery.compile", root, r.req, func() { plan = kgquery.Compile(q, snap) })
		var res *kgquery.Result
		r.tr.do("kgquery.execute", root, r.req, func() {
			// Limit is the handler's kgQueryResultCap
			res, err = plan.Execute(r.ctx, snap, kgquery.Options{Limit: 1000})
		})
		if err != nil {
			r.c.fail(o, fmt.Errorf("direct Execute: %w", err))
			return
		}
		page := res.Paths
		if len(page) > 20 {
			page = page[:20]
		}
		r.encode(root, page)
	}
}

func (r *replayer) ingest(gen *ingestGen) {
	post, marker := gen.next()
	root := r.root(post)
	r.c.exec(marker)
	sys := r.ts.sys
	direct, _ := gen.next()
	r.tr.do("core.ingest_docs", root, r.req, func() {
		if rep := sys.IngestDocs(direct.docs); rep.Failed > 0 {
			r.c.fail(direct, rep.Err())
		}
	})
	r.scanned += float64(sys.Pubs.Count())
	r.batches++
	r.tr.do("core.enrich", root, r.req, func() { sys.EnrichNew() })
	r.tr.do("kg.snapshot", root, r.req, func() { sys.Graph.Snapshot() })
}

// tracedRun boots the server tier in this process over 4 fresh shard
// processes, replays the workload's inputs with spans around every call,
// runs the layer probes, writes the spans to out/trace-<workload>.json
// and returns the span-sourced per-layer metrics.
func tracedRun(ctx context.Context, env *runEnv, c *client, workload string, seed int64) (values, error) {
	log.SetOutput(io.Discard) // the in-process tiers log through the global logger
	defer log.SetOutput(os.Stderr)
	ts, err := startTracedServer(ctx, env)
	if err != nil {
		return nil, err
	}
	defer ts.stop()
	c.retarget(ts.base)

	tr := &tracer{began: time.Now()}
	r := &replayer{ctx: ctx, tr: tr, ts: ts, c: c, cold: workload == wlSearchCold}
	within := func() bool {
		return r.req < traceInputs && time.Since(tr.began) < traceBudget && ctx.Err() == nil
	}
	switch workload {
	case wlSearchCold:
		gen := newQueryGen(seed)
		for within() {
			r.search(gen.next())
		}
	case wlSearchWarm:
		set := hotSet(seed)
		for _, q := range set {
			c.exec(q.op())
		}
		gen := newHotGen(set, seed)
		tr.began = time.Now()
		for within() {
			r.search(gen.next())
		}
	case wlIngestMixed:
		gen := newIngestGen(seed)
		for within() {
			r.ingest(gen)
		}
	case wlKGBrowse:
		nodes, err := learnKG(c)
		if err != nil {
			return nil, err
		}
		gen, err := newKGGen(seed, nodes, serverPubIDs(seed))
		if err != nil {
			return nil, err
		}
		for within() {
			r.kgStep(gen.next())
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := ts.shards.checkAlive(); err != nil {
		return nil, err
	}
	out := values{}
	if err := layerProbes(ctx, tr, ts, out); err != nil {
		return nil, err
	}

	spans := tr.spans
	med := func(name string) float64 { return median(byName(spans, name)) }
	self := selfTimes(spans)
	var rootSelf []float64
	for _, s := range spans {
		if s.Name == "http" {
			rootSelf = append(rootSelf, self[s.ID])
		}
	}
	out["trace.root_p50_ms"] = med("http")
	out["trace.unattributed_share"] = unattributedShare(spans)
	out["api.self_ms"] = median(rootSelf)
	out["api.encode_ms"] = med("api.encode")
	if r.cold {
		out["search.cold_call_ms"] = med("search.call")
	} else {
		out["search.warm_call_ms"] = med("search.call")
	}
	out["textproc.parse_query_us"] = med("textproc.parse_query") * 1000
	out["index.term_snapshots_us"] = med("index.term_snapshots") * 1000
	out["index.candidates_us"] = med("index.candidates") * 1000
	out["index.candidates_per_query"] = ratio(r.candidates, r.searches)
	out["shardnet.get_many_page_ms"] = med("shardnet.get_many_page")
	out["core.ingest_ms_per_doc"] = med("core.ingest_docs") / ingestBatch
	out["core.enrich_ms_per_batch"] = med("core.enrich")
	out["core.enrich_docs_scanned_per_batch"] = ratio(r.scanned, r.batches)
	if r.batches > 0 {
		// AddDocument is the store insert (timed alone by the probes)
		// plus indexing
		out["index.add_us_per_doc"] = max(0, med("core.ingest_docs")/ingestBatch-med("shardnet.insert")) * 1000
	}
	out["kgquery.parse_us"] = med("kgquery.parse") * 1000
	out["kgquery.compile_us"] = med("kgquery.compile") * 1000
	out["kgquery.execute_ms"] = med("kgquery.execute")
	out["kg.snapshot_ms"] = med("kg.snapshot")
	out["kg.nodes"] = float64(ts.sys.Graph.Size())
	st := ts.sys.Search.Index().Stats()
	out["index.segments"] = float64(st.Segments)
	out["index.seals"] = float64(st.Seals)
	out["index.merges"] = float64(st.Merges)

	return out, writeSpans(env, workload, seed, spans)
}

func writeSpans(env *runEnv, workload string, seed int64, spans []span) error {
	dir := filepath.Join(env.repoRoot, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"env": stamp(env.repoRoot), "workload": workload, "seed": seed, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
