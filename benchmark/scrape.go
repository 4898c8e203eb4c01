package main

// serverMetrics is one reading of the server's public
// GET /api/v1/metrics; per-layer numbers are deltas of two readings.
// A counter or histogram nothing has touched yet is absent from the
// payload and reads as zero here.
type serverMetrics struct {
	Counters   map[string]float64 `json:"counters"`
	Histograms map[string]struct {
		Count float64 `json:"count"`
		SumMs float64 `json:"sum_ms"`
	} `json:"histograms"`
	SearchCache struct {
		Hits      float64 `json:"hits"`
		Misses    float64 `json:"misses"`
		StaleTerm float64 `json:"stale_term"`
	} `json:"search_cache"`
	SearchScoring struct {
		Fallback float64 `json:"fallback_path_queries"`
		Index    float64 `json:"index_path_queries"`
		Pruned   float64 `json:"topk_pruned_docs"`
	} `json:"search_scoring"`
	Runtime struct {
		HeapInuse  float64 `json:"heap_inuse_bytes"`
		GCPauseP99 float64 `json:"gc_pause_p99_us"`
	} `json:"runtime"`
}

func scrapeMetrics(c *client) (serverMetrics, error) {
	var m serverMetrics
	err := c.getJSON("/api/v1/metrics", &m)
	return m, err
}

// searchStages are the engine's stage histograms, search.stage.<name>.
var searchStages = []string{"candidates", "topk", "materialize", "snippet", "fetch", "match", "score", "sort", "project"}

// fallbackStages are the stages only the pipeline fallback path runs.
var fallbackStages = []string{"fetch", "match", "score", "sort", "project"}

func counterDelta(a, b serverMetrics, name string) float64 {
	return b.Counters[name] - a.Counters[name]
}

func stageSumDelta(a, b serverMetrics, stage string) float64 {
	return b.Histograms["search.stage."+stage].SumMs - a.Histograms["search.stage."+stage].SumMs
}
