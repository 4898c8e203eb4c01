package api

import (
	"net/http"
	"testing"

	"covidkg/internal/metrics"
)

// TestIngestStageHistograms: each ingest flush records its store call
// and its enrichment call in the server's registry, scrapeable from
// /api/v1/metrics, so a batch's time splits into the two.
func TestIngestStageHistograms(t *testing.T) {
	_, sys := testServer(t)
	cfg := DefaultConfig()
	cfg.Metrics = metrics.NewRegistry()
	s := NewServerWith(sys, cfg)
	body := `[{"_id": "web-hist-1", "title": "Antibody titers after booster",
		"abstract": "Serology follow-up.",
		"tables": [{"rows": [["Vaccine", "Titer"], ["Pfizer", "High"]], "header_rows": [0]}]}]`
	if rec, resp := postJSON(t, s, "/api/v1/publications", body); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %v", rec.Code, resp)
	}
	_, m := get(t, s, "/api/v1/metrics")
	hists, _ := m["histograms"].(map[string]any)
	for _, name := range []string{"ingest.store", "ingest.enrich"} {
		h, _ := hists[name].(map[string]any)
		if n, _ := h["count"].(float64); n != 1 {
			t.Errorf("histograms[%q] = %v, want one flush recorded", name, hists[name])
		}
	}
}
