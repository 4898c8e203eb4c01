package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/jsondoc"
)

var updateFusionGolden = flag.Bool("update-fusion-golden", false,
	"rewrite testdata/fusion_golden.json from the fusions this build makes")

const fusionGoldenFile = "testdata/fusion_golden.json"

// fusionStage is the graph after one enrichment: its stats and a hash of
// its JSON form.
type fusionStage struct {
	Stage   string     `json:"stage"`
	Stats   BuildStats `json:"stats"`
	Nodes   int        `json:"nodes"`
	Bytes   int        `json:"graph_bytes"`
	SHA256  string     `json:"graph_sha256"`
	Pending int        `json:"pending"`
}

// TestFusionGolden pins what enrichment does to the served graph: the
// seed-42 boot corpus trained and built, then four 32-document ingest +
// EnrichNew batches; after each, the graph JSON must hash to what it
// did, and the review queue must hold the same items with the same
// suggestions and bit-identical confidences (testdata recorded at commit
// db04433, before fusion read label vectors from a cache).
func TestFusionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the 500-publication corpus")
	}
	cfg := DefaultConfig()
	cfg.Seed = 42
	s := NewSystem(cfg)
	if err := s.IngestPublications(cord19.NewGenerator(42).Corpus(500)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrainModels(); err != nil {
		t.Fatal(err)
	}
	var stages []fusionStage
	record := func(name string, st BuildStats) {
		blob, err := s.Graph.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		stages = append(stages, fusionStage{name, st, s.Graph.Size(), len(blob),
			hex.EncodeToString(sum[:]), len(s.Fuser.Pending())})
	}
	boot, err := s.BuildKG()
	if err != nil {
		t.Fatal(err)
	}
	record("boot", boot)
	fresh := cord19.NewGenerator(4242)
	for b := 1; b <= 4; b++ {
		var docs []jsondoc.Doc
		for _, p := range fresh.Corpus(32) {
			docs = append(docs, p.Doc())
		}
		if rep := s.IngestDocs(docs); rep.Failed > 0 {
			t.Fatal(rep.Err())
		}
		record(fmt.Sprintf("batch-%d", b), s.EnrichNew())
	}
	// one line per queued fusion: id, method, suggested node, the
	// confidence's IEEE-754 bits, root label
	var review []string
	for _, it := range s.Fuser.Pending() {
		review = append(review, fmt.Sprintf("%d %s %q %016x %q", it.ID, it.Method,
			it.SuggestedID, math.Float64bits(it.Confidence), it.Sub.Label))
	}
	got, err := json.MarshalIndent(map[string]any{"stages": stages, "review": review}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateFusionGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fusionGoldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fusionGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		var w struct {
			Stages []fusionStage `json:"stages"`
			Review []string      `json:"review"`
		}
		if err := json.Unmarshal(want, &w); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(stages) && i < len(w.Stages); i++ {
			if stages[i] != w.Stages[i] {
				t.Errorf("stage %d changed:\n got  %+v\n want %+v", i, stages[i], w.Stages[i])
			}
		}
		for i := 0; i < len(review) && i < len(w.Review); i++ {
			if review[i] != w.Review[i] {
				t.Errorf("review item %d changed:\n got  %s\n want %s", i, review[i], w.Review[i])
			}
		}
		t.Fatalf("fusion output differs from %s (%d review items, want %d)",
			fusionGoldenFile, len(review), len(w.Review))
	}
}
