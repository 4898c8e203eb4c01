package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/features"
	"covidkg/internal/tableparse"
)

var updateModelsGolden = flag.Bool("update-models-golden", false,
	"rewrite testdata/models_golden.json from the models this build trains")

const modelsGoldenFile = "testdata/models_golden.json"

// modelsGolden is what TrainModels produces on the seed-42 corpus.
type modelsGolden struct {
	Stats   TrainStats        `json:"stats"`
	Models  map[string]string `json:"model_sha256"` // ExportModel name → sha256 of its blob
	SVMRows int               `json:"svm_rows"`
	SVMBits string            `json:"svm_bits"` // one bit per corpus row, 1 = metadata, hex-packed
	Vocab   []string          `json:"vocab_terms"`
}

// TestTrainModelsGolden pins every trained model bit for bit: the
// seed-42, 500-publication corpus is trained, then each released model's
// exported blob must hash to what it did, the §3.2 vocabulary must hold
// the same terms in the same order, and the SVM must classify every row
// of every corpus table the same way.
func TestTrainModelsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on the 500-publication corpus")
	}
	cfg := DefaultConfig()
	cfg.Seed = 42
	s := NewSystem(cfg)
	corpus := cord19.NewGenerator(42).Corpus(500)
	if err := s.IngestPublications(corpus); err != nil {
		t.Fatal(err)
	}
	stats, err := s.TrainModels()
	if err != nil {
		t.Fatal(err)
	}
	g := modelsGolden{Stats: stats, Models: map[string]string{}, Vocab: s.Vocab.Terms}
	for _, name := range s.ModelNames() {
		m, err := s.ExportModel(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(m.Data)
		g.Models[name] = hex.EncodeToString(sum[:])
	}
	var bits []byte
	for _, p := range corpus {
		d := p.Doc()
		eachTable(d.GetString("_id"), d.GetArray("tables"), func(_ string, tb *tableparse.Table) {
			for _, f := range features.ExtractRows(tb.Rows, nil) {
				if g.SVMRows%8 == 0 {
					bits = append(bits, 0)
				}
				if s.SVM.Predict(f) == 1 {
					bits[len(bits)-1] |= 1 << (g.SVMRows % 8)
				}
				g.SVMRows++
			}
		})
	}
	g.SVMBits = hex.EncodeToString(bits)

	got, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateModelsGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelsGoldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(modelsGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var w modelsGolden
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if g.Stats != w.Stats {
		t.Errorf("stats changed:\n got  %+v\n want %+v", g.Stats, w.Stats)
	}
	for name, sum := range w.Models {
		if g.Models[name] != sum {
			t.Errorf("model %s changed: sha256 %s, want %s", name, g.Models[name], sum)
		}
	}
	if len(g.Models) != len(w.Models) {
		t.Errorf("models %v, want %v", s.ModelNames(), w.Models)
	}
	if g.SVMRows != w.SVMRows || g.SVMBits != w.SVMBits {
		t.Errorf("SVM predictions changed over %d rows (want %d rows)", g.SVMRows, w.SVMRows)
	}
	for i := 0; i < len(g.Vocab) && i < len(w.Vocab); i++ {
		if g.Vocab[i] != w.Vocab[i] {
			t.Errorf("vocabulary term %d = %q, want %q", i, g.Vocab[i], w.Vocab[i])
			break
		}
	}
	t.Fatalf("trained models differ from %s (%d vocabulary terms, want %d)",
		modelsGoldenFile, len(g.Vocab), len(w.Vocab))
}
