package main

// metricDef declares one metric: BENCHMARK.json lists exactly these, and
// every run prints exactly these. bound is the share by which an
// end-to-end metric may worsen before a change counts as a regression
// (also the share two same-code runs must agree within); per-layer
// metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" | "higher"
	bound  float64
}

// endToEnd is what a user or operator of the service sees. Every one is
// measured on every workload, untraced. See README.md for definitions, and
// its "Repeatability" for why the bounds are this wide on this host.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.10},
}

// perLayer attributes the end-to-end numbers to this repo's packages. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// client: the generator's own counts
	{"client.p95_ms", "ms", "lower", 0},
	{"client.reader_p50_ms", "ms", "lower", 0},
	{"client.reader_p95_ms", "ms", "lower", 0},
	{"client.failed_share", "ratio", "lower", 0},
	{"client.kg_nodes_p50_ms", "ms", "lower", 0},
	{"client.pub_get_p50_ms", "ms", "lower", 0},
	{"gen.cpu_share", "ratio", "lower", 0},

	{"api.self_ms", "ms", "lower", 0},
	{"api.encode_ms", "ms", "lower", 0},
	{"api.resp_kb_per_op", "KB", "lower", 0},
	{"api.shed_share", "ratio", "lower", 0},

	{"search.cache_hit_share", "ratio", "higher", 0},
	{"search.cache_stale_term_per_batch", "count", "lower", 0},
	{"search.fallback_share", "ratio", "lower", 0},
	{"search.stage_candidates_ms_per_query", "ms", "lower", 0},
	{"search.stage_topk_ms_per_query", "ms", "lower", 0},
	{"search.stage_materialize_ms_per_query", "ms", "lower", 0},
	{"search.stage_snippet_ms_per_query", "ms", "lower", 0},
	{"search.stage_fetch_ms_per_query", "ms", "lower", 0},
	{"search.stage_match_ms_per_query", "ms", "lower", 0},
	{"search.stage_score_ms_per_query", "ms", "lower", 0},
	{"search.stage_sort_ms_per_query", "ms", "lower", 0},
	{"search.stage_project_ms_per_query", "ms", "lower", 0},
	{"search.cold_call_ms", "ms", "lower", 0},
	{"search.warm_call_ms", "ms", "lower", 0},
	{"search.shape_multi_p50_ms", "ms", "lower", 0},
	{"search.shape_phrase_p50_ms", "ms", "lower", 0},
	{"search.shape_tables_p50_ms", "ms", "lower", 0},
	{"search.shape_fields_p50_ms", "ms", "lower", 0},

	{"textproc.parse_query_us", "us", "lower", 0},

	{"index.term_snapshots_us", "us", "lower", 0},
	{"index.candidates_us", "us", "lower", 0},
	{"index.candidates_per_query", "count", "lower", 0},
	{"index.pruned_docs_per_query", "count", "higher", 0},
	{"index.add_us_per_doc", "us", "lower", 0},
	{"index.segments", "count", "lower", 0},
	{"index.seals", "count", "lower", 0},
	{"index.merges", "count", "lower", 0},

	{"pipeline.fallback_ms_per_query", "ms", "lower", 0},

	{"shardnet.get_many_page_ms", "ms", "lower", 0},
	{"shardnet.get_many_256_ms", "ms", "lower", 0},
	{"shardnet.get_ms", "ms", "lower", 0},
	{"shardnet.insert_ms", "ms", "lower", 0},
	{"shardnet.insert_nowal_ms", "ms", "lower", 0},
	{"shardnet.wal_fsync_ms", "ms", "lower", 0},
	{"shardnet.codec_get_encode_us", "us", "lower", 0},
	{"shardnet.codec_get_decode_us", "us", "lower", 0},
	{"shardnet.codec_get_many_encode_us", "us", "lower", 0},
	{"shardnet.codec_get_many_decode_us", "us", "lower", 0},
	{"shardnet.wire_bytes_per_doc", "B", "lower", 0},
	{"shardnet.wal_bytes_per_doc", "B", "lower", 0},
	{"shardnet.hedged_per_kop", "count", "lower", 0},
	{"shardnet.breaker_open", "count", "lower", 0},
	{"shardnet.shard_cpu_share", "ratio", "lower", 0},
	{"shardnet.acked_lost", "count", "lower", 0},

	{"docstore.get_many_256_ms", "ms", "lower", 0},
	{"docstore.insert_us", "us", "lower", 0},

	{"jsondoc.decode_us_per_doc", "us", "lower", 0},
	{"jsondoc.encode_us_per_doc", "us", "lower", 0},
	{"jsondoc.bytes_per_doc", "B", "lower", 0},

	{"core.ingest_ms_per_doc", "ms", "lower", 0},
	{"core.enrich_ms_per_batch", "ms", "lower", 0},
	{"core.enrich_docs_scanned_per_batch", "count", "lower", 0},

	{"kgquery.parse_us", "us", "lower", 0},
	{"kgquery.compile_us", "us", "lower", 0},
	{"kgquery.execute_ms", "ms", "lower", 0},
	{"kgquery.expansions_per_query", "count", "lower", 0},
	{"kgquery.truncated_share", "ratio", "lower", 0},
	{"kg.snapshot_ms", "ms", "lower", 0},
	{"kg.nodes", "count", "higher", 0},

	{"proc.server_cpu_share", "ratio", "lower", 0},
	{"proc.server_rss_mb", "MB", "lower", 0},
	{"proc.shard_rss_mb", "MB", "lower", 0},
	{"proc.gc_pause_p99_us", "us", "lower", 0},
	{"proc.heap_inuse_mb", "MB", "lower", 0},

	{"trace.root_p50_ms", "ms", "lower", 0},
	{"trace.unattributed_share", "ratio", "lower", 0},
}

// values maps metric name to measured value.
type values map[string]float64

// observed is everything the generator, the server's metrics endpoint
// and /proc say about one timed window.
type observed struct {
	e2e    values
	layer  values
	counts map[string]int // samples behind the latency metrics
}

// medianOf merges trials: every metric is its median over the trials,
// every sample count the sum.
func medianOf(trials []observed) observed {
	o := observed{e2e: values{}, layer: values{}, counts: map[string]int{}}
	merge := func(into values, pick func(observed) values) {
		for name := range pick(trials[0]) {
			vs := make([]float64, len(trials))
			for i, t := range trials {
				vs[i] = pick(t)[name]
			}
			into[name] = median(vs)
		}
	}
	merge(o.e2e, func(t observed) values { return t.e2e })
	merge(o.layer, func(t observed) values { return t.layer })
	for _, t := range trials {
		for name, n := range t.counts {
			o.counts[name] += n
		}
	}
	return o
}

func flatten(streams [][]sample) []sample {
	var out []sample
	for _, s := range streams {
		out = append(out, s...)
	}
	return out
}

// latencies returns the latencies of the successful samples keep admits.
func latencies(samples []sample, keep func(opKind) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && keep(s.kind) {
			out = append(out, s.ms)
		}
	}
	return out
}

func only(k opKind) func(opKind) bool { return func(x opKind) bool { return x == k } }

// measure turns a window into the end-to-end metrics and the per-layer
// metrics that come from the client, the scrape and /proc.
func measure(workload string, w *window) observed {
	o := observed{e2e: values{}, layer: values{}, counts: map[string]int{}}
	all := flatten(w.samples)
	secs := w.dur.Seconds()

	// the primary operation: what ops_s counts and p50_ms times
	var requests, respBytes float64
	var lat []float64
	primary := opKind.isSearch
	switch workload {
	case wlKGBrowse:
		// every session step is an operation, but the latency is the
		// /kg/query step alone: the median of a 50/50 mixture is unstable
		primary = func(opKind) bool { return true }
		lat = latencies(all, only(opKGQuery))
	case wlIngestMixed:
		primary = only(opIngest)
	}
	for _, s := range all {
		if s.ok && primary(s.kind) {
			requests++
			respBytes += float64(s.bytes)
		}
	}
	if lat == nil {
		lat = latencies(all, primary)
	}
	ops := requests
	if workload == wlIngestMixed {
		ops *= ingestBatch // documents acked
	}

	before, after := w.before, w.after
	serverCPU := after.u.serverCPU - before.u.serverCPU
	shardCPU := after.u.shardCPU - before.u.shardCPU
	genCPU := after.gen - before.gen
	p50, p95, p95ok := p50p95(lat)

	o.e2e["ops_s"] = ratio(ops, secs)
	o.e2e["p50_ms"] = p50
	o.e2e["cpu_ms_per_op"] = ratio((serverCPU+shardCPU)*1000, ops)
	o.e2e["rss_mb"] = after.u.serverRSS + after.u.shardRSS
	o.counts["p50_ms"] = len(lat)

	l := o.layer
	if p95ok {
		l["client.p95_ms"] = p95
	}
	if workload == wlIngestMixed {
		reader := latencies(all, opKind.isSearch)
		rp50, rp95, ok := p50p95(reader)
		l["client.reader_p50_ms"] = rp50
		if ok {
			l["client.reader_p95_ms"] = rp95
		}
		o.counts["client.reader_p50_ms"] = len(reader)
		l["shardnet.wal_bytes_per_doc"] = ratio(float64(after.wal-before.wal), ops)
	}
	l["client.kg_nodes_p50_ms"] = median(latencies(all, only(opKGNode)))
	l["client.pub_get_p50_ms"] = median(latencies(all, only(opPubGet)))
	l["search.shape_multi_p50_ms"] = median(latencies(all, only(opSearchMulti)))
	l["search.shape_phrase_p50_ms"] = median(latencies(all, only(opSearchPhrase)))
	l["search.shape_tables_p50_ms"] = median(latencies(all, only(opSearchTables)))
	l["search.shape_fields_p50_ms"] = median(latencies(all, only(opSearchFields)))
	l["api.resp_kb_per_op"] = ratio(respBytes/1024, requests)

	var kgQueries, expansions, truncated float64
	for _, s := range all {
		if s.ok && s.kind == opKGQuery {
			kgQueries++
			expansions += float64(s.expansions)
			if s.truncated {
				truncated++
			}
		}
	}
	l["kgquery.expansions_per_query"] = ratio(expansions, kgQueries)
	l["kgquery.truncated_share"] = ratio(truncated, kgQueries)

	// scrape: deltas of the server's own counters across the window
	m0, m1 := before.m, after.m
	queries := counterDelta(m0, m1, "search.queries")
	hits := m1.SearchCache.Hits - m0.SearchCache.Hits
	misses := m1.SearchCache.Misses - m0.SearchCache.Misses
	fallback := m1.SearchScoring.Fallback - m0.SearchScoring.Fallback
	indexPath := m1.SearchScoring.Index - m0.SearchScoring.Index
	l["api.shed_share"] = ratio(counterDelta(m0, m1, "requests_shed"), counterDelta(m0, m1, "http.requests"))
	l["search.cache_hit_share"] = ratio(hits, hits+misses)
	l["search.fallback_share"] = ratio(fallback, fallback+indexPath)
	if workload == wlIngestMixed {
		l["search.cache_stale_term_per_batch"] = ratio(m1.SearchCache.StaleTerm-m0.SearchCache.StaleTerm, requests)
	}
	for _, st := range searchStages {
		l["search.stage_"+st+"_ms_per_query"] = ratio(stageSumDelta(m0, m1, st), queries)
	}
	var fallbackMs float64
	for _, st := range fallbackStages {
		fallbackMs += stageSumDelta(m0, m1, st)
	}
	l["pipeline.fallback_ms_per_query"] = ratio(fallbackMs, fallback)
	l["index.pruned_docs_per_query"] = ratio(m1.SearchScoring.Pruned-m0.SearchScoring.Pruned, queries)
	l["shardnet.hedged_per_kop"] = ratio(counterDelta(m0, m1, "hedged_requests")*1000, ops)
	l["shardnet.breaker_open"] = counterDelta(m0, m1, "breaker_open")
	l["proc.gc_pause_p99_us"] = m1.Runtime.GCPauseP99
	l["proc.heap_inuse_mb"] = m1.Runtime.HeapInuse / (1 << 20)

	// proc: who burned the CPU, and who holds the memory
	totalCPU := serverCPU + shardCPU + genCPU
	l["proc.server_cpu_share"] = ratio(serverCPU, totalCPU)
	l["shardnet.shard_cpu_share"] = ratio(shardCPU, totalCPU)
	l["gen.cpu_share"] = ratio(genCPU, totalCPU)
	l["proc.server_rss_mb"] = after.u.serverRSS
	l["proc.shard_rss_mb"] = after.u.shardRSS
	return o
}
