package classifier

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"covidkg/internal/durable"
	"covidkg/internal/faultfs"
)

// modelFile is the name a system checkpoint gives the ensemble.
const modelFile = "ensemble.model"

func tinyEnsemble(t *testing.T) (*Ensemble, []TupleSample) {
	t.Helper()
	samples, termW2V, cellW2V := buildSamples(t, 12, 9)
	cfg := DefaultEnsembleConfig()
	cfg.Units = 4
	cfg.Epochs = 2
	m, err := NewEnsemble(termW2V, cellW2V, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Train(samples)
	return m, samples
}

// saveEnsemble commits m's export as the one file of a new snapshot
// generation in dir, the way a system checkpoint writes it.
func saveEnsemble(fs faultfs.FS, dir string, m *Ensemble) error {
	blob, err := m.Export()
	if err != nil {
		return err
	}
	tx, err := durable.NewSnapshotter(dir, durable.WithFS(fs)).Begin()
	if err != nil {
		return err
	}
	if err := tx.WriteFile(modelFile, blob); err != nil {
		return err
	}
	return tx.Commit()
}

// loadEnsemble imports the ensemble from dir's newest verified
// generation.
func loadEnsemble(dir string) (*Ensemble, error) {
	sn, _, err := durable.NewSnapshotter(dir).Load()
	if err != nil {
		return nil, err
	}
	blob, err := sn.ReadFile(modelFile)
	if err != nil {
		return nil, err
	}
	return ImportEnsemble(blob)
}

func exported(t *testing.T, m *Ensemble) []byte {
	t.Helper()
	blob, err := m.Export()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSaveLoadEnsembleFile: the model file round-trips through a
// snapshot bit for bit and the loaded model predicts identically.
func TestSaveLoadEnsembleFile(t *testing.T) {
	m, samples := tinyEnsemble(t)
	dir := t.TempDir()
	if err := saveEnsemble(faultfs.OS{}, dir, m); err != nil {
		t.Fatal(err)
	}
	m2, err := loadEnsemble(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exported(t, m2), exported(t, m)) {
		t.Fatal("loaded model exports different bytes")
	}
	for _, s := range samples[:10] {
		if a, b := m.PredictProb(s), m2.PredictProb(s); a != b {
			t.Fatalf("prediction drift: %v vs %v", a, b)
		}
	}
}

// TestSaveEnsembleFileCrashKeepsOldModel: a crash at any mutating I/O
// point of a second save leaves exactly the old model or exactly the
// new one loadable, never a mix and never nothing.
func TestSaveEnsembleFileCrashKeepsOldModel(t *testing.T) {
	m, samples := tinyEnsemble(t)
	oldBlob := exported(t, m)
	m.Train(samples)
	newBlob := exported(t, m)
	if bytes.Equal(oldBlob, newBlob) {
		t.Fatal("the two models are indistinguishable")
	}
	oldModel, err := ImportEnsemble(oldBlob)
	if err != nil {
		t.Fatal(err)
	}

	counter := &faultfs.CrashPolicy{}
	probe := t.TempDir()
	if err := saveEnsemble(faultfs.OS{}, probe, oldModel); err != nil {
		t.Fatal(err)
	}
	if err := saveEnsemble(faultfs.NewFaulty(faultfs.OS{}, counter), probe, m); err != nil {
		t.Fatal(err)
	}
	nOps := counter.Ops()
	if nOps == 0 {
		t.Fatal("the save performed no mutating I/O")
	}

	for failAt := 1; failAt <= nOps; failAt++ {
		name := fmt.Sprintf("failAt=%d", failAt)
		dir := t.TempDir()
		if err := saveEnsemble(faultfs.OS{}, dir, oldModel); err != nil {
			t.Fatal(err)
		}
		saveErr := saveEnsemble(faultfs.NewFaulty(faultfs.OS{}, &faultfs.CrashPolicy{FailAt: failAt}), dir, m)
		loaded, err := loadEnsemble(dir)
		if err != nil {
			t.Fatalf("%s: model unloadable after crash: %v", name, err)
		}
		got := exported(t, loaded)
		switch {
		case bytes.Equal(got, oldBlob):
			if saveErr == nil {
				t.Fatalf("%s: save claimed success but the old model loaded", name)
			}
		case bytes.Equal(got, newBlob):
		default:
			t.Fatalf("%s: loaded model is neither the old nor the new one", name)
		}
	}
}

// TestLoadEnsembleFileDetectsCorruption: bit rot in the model file
// fails its checksum instead of silently mispredicting.
func TestLoadEnsembleFileDetectsCorruption(t *testing.T) {
	m, _ := tinyEnsemble(t)
	dir := t.TempDir()
	if err := saveEnsemble(faultfs.OS{}, dir, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("g%06d-%s", 1, modelFile))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadEnsemble(dir); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupted model not refused by its checksum: err = %v", err)
	}
}
