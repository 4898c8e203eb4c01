package api

import (
	"net/http"
	"testing"

	"covidkg/internal/metrics"
)

// TestIngestStageHistograms: each ingest flush records its store call
// and its enrichment call, and the search engine records the ordered
// AddDoc loop inside the store call, all in the one registry the process
// passes to both the system and the server, scrapeable from
// /api/v1/metrics — so a batch's time splits into its stages.
func TestIngestStageHistograms(t *testing.T) {
	_, sys := testServer(t)
	cfg := DefaultConfig()
	cfg.Metrics = metrics.NewRegistry()
	sys.Search.SetMetrics(cfg.Metrics)
	s := NewServerWith(sys, cfg)
	body := `[{"_id": "web-hist-1", "title": "Antibody titers after booster",
		"abstract": "Serology follow-up.",
		"tables": [{"rows": [["Vaccine", "Titer"], ["Pfizer", "High"]], "header_rows": [0]}]}]`
	if rec, resp := postJSON(t, s, "/api/v1/publications", body); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %v", rec.Code, resp)
	}
	_, m := get(t, s, "/api/v1/metrics")
	hists, _ := m["histograms"].(map[string]any)
	for _, name := range []string{"ingest.store", "ingest.index", "ingest.enrich"} {
		h, _ := hists[name].(map[string]any)
		if n, _ := h["count"].(float64); n != 1 {
			t.Errorf("histograms[%q] = %v, want one flush recorded", name, hists[name])
		}
	}
	sum := func(name string) float64 { v, _ := hists[name].(map[string]any)["sum_ms"].(float64); return v }
	if sum("ingest.index") > sum("ingest.store") {
		t.Errorf("ingest.index took %v ms, more than the store call %v ms it runs inside", sum("ingest.index"), sum("ingest.store"))
	}
}
