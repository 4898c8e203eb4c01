package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"covidkg/internal/classifier"
	"covidkg/internal/cord19"
	"covidkg/internal/durable"
	"covidkg/internal/embeddings"
	"covidkg/internal/faultfs"
	"covidkg/internal/jsondoc"
	"covidkg/internal/kg"
	"covidkg/internal/search"
)

// untrainedSystem builds a system with ingested publications and a
// markup-hint-built KG but no trained models, so checkpoint tests stay
// fast.
func untrainedSystem(t *testing.T, nPubs int, seed int64, fs faultfs.FS) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.FS = fs
	s := NewSystem(cfg)
	g := cord19.NewGenerator(seed)
	if err := s.IngestPublications(g.Corpus(nPubs)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BuildKG(); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyEnsemble is an untrained BiGRU ensemble over a small vocabulary:
// enough to put ensemble.model into a checkpoint. Different seeds give
// different weights.
func tinyEnsemble(t *testing.T, seed int64) *classifier.Ensemble {
	t.Helper()
	wcfg := embeddings.DefaultConfig()
	wcfg.Dim, wcfg.MinCount, wcfg.Epochs, wcfg.Seed = 4, 1, 1, seed
	w2v := embeddings.Train([][]string{{"fever", "cough", "dose", "mask", "pfizer"}}, wcfg)
	ecfg := classifier.DefaultEnsembleConfig()
	ecfg.Units, ecfg.DenseUnits, ecfg.Seed = 2, 2, seed
	m, err := classifier.NewEnsemble(w2v, w2v, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stateQueries are the fixed searches whose first pages a restore must
// reproduce byte for byte.
var stateQueries = []string{"vaccine", "transmission masks", "covid patients"}

// pages renders the first SearchAllContext page of every stateQuery.
func pages(t *testing.T, e *search.Engine) string {
	t.Helper()
	var b bytes.Buffer
	for _, q := range stateQueries {
		pg, err := e.SearchAllContext(context.Background(), q, 1)
		if err != nil {
			t.Fatalf("search %q: %v", q, err)
		}
		if pg.Total == 0 {
			t.Fatalf("search %q matched nothing: the comparison would be vacuous", q)
		}
		enc, err := json.Marshal(pg)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteByte('\n')
		b.Write(enc)
	}
	return b.String()
}

// state renders what a restore must reproduce exactly: the graph's
// JSON bytes, three fixed SearchAllContext pages, and the ensemble's
// export when there is one.
func state(t *testing.T, s *System) string {
	t.Helper()
	graph, err := s.Graph.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.Write(graph)
	b.WriteString(pages(t, s.Search))
	if s.Ensemble != nil {
		blob, err := s.Ensemble.Export()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteByte('\n')
		b.Write(blob)
	}
	return b.String()
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := untrainedSystem(t, 20, 7, nil)
	want := state(t, s)
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	s2 := NewSystem(DefaultConfig())
	report, err := s2.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if report.Generation != 1 {
		t.Fatalf("report generation = %d", report.Generation)
	}
	if got := strings.Join(report.Recovered, ","); got != "index.json,"+GraphFile+","+PubsCollection+".jsonl,seg-0.bin" {
		t.Fatalf("recovered files = %s", got)
	}
	if got := state(t, s2); got != want {
		t.Fatal("restored graph or search pages differ from the checkpointed system")
	}
	// the graph is a checkpoint file, not a document in the store
	if got := s2.Pubs.Count(); got != s.Pubs.Count() {
		t.Fatalf("store holds %d documents, want the %d publications", got, s.Pubs.Count())
	}

	// the restored graph is searchable and fusable
	if hits, err := s2.Graph.SearchContext(context.Background(), "vaccines"); err != nil || len(hits) == 0 {
		t.Fatalf("restored graph not searchable: %d hits, %v", len(hits), err)
	}
	if res := s2.Fuser.Fuse(kg.NewSubtree("Vaccines", "RestoredVac")); res.Action != kg.ActionFused {
		t.Fatalf("fusion on restored graph: %+v", res)
	}

	// a second checkpoint advances the generation and carries the fusion
	want2 := state(t, s2)
	if err := s2.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	s3 := NewSystem(DefaultConfig())
	report, err = s3.Restore(dir)
	if err != nil || report.Generation != 2 {
		t.Fatalf("gen=%d err=%v", report.Generation, err)
	}
	if got := state(t, s3); got != want2 {
		t.Fatal("second restore differs from the second checkpoint")
	}
}

// TestCheckpointCrashRecovery drives the acceptance criterion at the
// system level: crash a second checkpoint at every mutating-I/O point
// and require Restore to come back with exactly the old state or
// exactly the new one — publications, graph, search pages and model —
// plus a report naming the generation.
func TestCheckpointCrashRecovery(t *testing.T) {
	oldSystem := func(fs faultfs.FS) *System {
		s := untrainedSystem(t, 12, 7, fs)
		s.Ensemble = tinyEnsemble(t, 1)
		return s
	}
	newSystem := func(fs faultfs.FS) *System {
		s := untrainedSystem(t, 14, 8, fs)
		s.Ensemble = tinyEnsemble(t, 2)
		return s
	}
	// count the crash surface of the second checkpoint
	probe := t.TempDir()
	if err := oldSystem(nil).Checkpoint(probe); err != nil {
		t.Fatal(err)
	}
	counter := &faultfs.CrashPolicy{}
	if err := newSystem(faultfs.NewFaulty(faultfs.OS{}, counter)).Checkpoint(probe); err != nil {
		t.Fatal(err)
	}
	nOps := counter.Ops()

	oldWant, newWant := state(t, oldSystem(nil)), state(t, newSystem(nil))
	if oldWant == newWant {
		t.Fatal("the two generations are indistinguishable")
	}

	for failAt := 1; failAt <= nOps; failAt++ {
		name := fmt.Sprintf("failAt=%d", failAt)
		dir := t.TempDir()
		if err := oldSystem(nil).Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		policy := &faultfs.CrashPolicy{FailAt: failAt}
		saveErr := newSystem(faultfs.NewFaulty(faultfs.OS{}, policy)).Checkpoint(dir)

		s := NewSystem(DefaultConfig())
		report, err := s.Restore(dir)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		got := state(t, s)
		switch report.Generation {
		case 1:
			if saveErr == nil {
				t.Fatalf("%s: checkpoint claimed success but gen 2 is gone", name)
			}
			if got != oldWant {
				t.Fatalf("%s: gen 1 state differs from the first checkpoint", name)
			}
		case 2:
			if got != newWant {
				t.Fatalf("%s: gen 2 state differs from the second checkpoint", name)
			}
		default:
			t.Fatalf("%s: recovered unexpected generation %d", name, report.Generation)
		}
	}
}

// TestCheckpointRestoresEnsemble: the trained ensemble is a named file
// of the checkpoint and comes back bit for bit; a corrupted copy fails
// its checksum instead of loading wrong weights.
func TestCheckpointRestoresEnsemble(t *testing.T) {
	dir := t.TempDir()
	s := untrainedSystem(t, 10, 7, nil)
	s.Ensemble = tinyEnsemble(t, 3)
	want, err := s.Ensemble.Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	s2 := NewSystem(DefaultConfig())
	if _, err := s2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if s2.Ensemble == nil {
		t.Fatal("ensemble not restored")
	}
	got, err := s2.Ensemble.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restored ensemble exports different bytes")
	}

	path := filepath.Join(dir, fmt.Sprintf("g%06d-%s", 1, EnsembleFile))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewSystem(DefaultConfig()).Restore(dir)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt ensemble restored: err = %v", err)
	}
}

// TestRestoreNothingToRestore pins the contract the server's boot
// relies on: a missing or empty dir, or one holding only bare
// collection files, is ErrNoSnapshot ("generate"); a dir whose only
// generation is corrupt is a different error ("refuse to boot").
// TestCheckpointBuildIsDeterministic: two systems that Build the same
// spec checkpoint byte-identical generations, which is what lets a cold
// covidkg-server boot and kgctl gen write the same files. Build over a
// store that already holds publications generates nothing and builds
// the graph over what is there.
func TestCheckpointBuildIsDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.TrainTables = 60
	cfg.W2V.Epochs = 2
	cfg.VocabSize = 1500
	spec := BuildSpec{Pubs: 20, Seed: 42}

	var dirs [2]string
	for i := range dirs {
		s := NewSystem(cfg)
		if _, err := s.Build(spec); err != nil {
			t.Fatal(err)
		}
		if n := s.Pubs.Count(); n != spec.Pubs+3 {
			t.Fatalf("build %d stored %d publications, want %d", i, n, spec.Pubs+3)
		}
		dirs[i] = t.TempDir()
		if err := s.Checkpoint(dirs[i]); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	other, err := os.ReadDir(dirs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(other) {
		t.Fatalf("checkpoints hold %d and %d files", len(entries), len(other))
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(dirs[0], e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two builds of %+v", e.Name(), spec)
		}
	}

	s := NewSystem(cfg)
	if err := s.IngestPublications(cord19.NewGenerator(7).Corpus(15)); err != nil {
		t.Fatal(err)
	}
	seeded := s.Graph.Size()
	bs, err := s.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Pubs.Count(); n != 15 {
		t.Fatalf("Build over 15 stored publications left %d", n)
	}
	if bs.Tables == 0 || bs.NodesAdded == 0 || s.Graph.Size() != seeded+bs.NodesAdded {
		t.Fatalf("Build over a filled store: %+v, graph %d → %d nodes", bs, seeded, s.Graph.Size())
	}
}

func TestRestoreNothingToRestore(t *testing.T) {
	bare := t.TempDir()
	if err := os.WriteFile(filepath.Join(bare, PubsCollection+".jsonl"), []byte(`{"_id":"a"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{
		"missing": filepath.Join(t.TempDir(), "missing"),
		"empty":   t.TempDir(),
		"bare":    bare,
	} {
		s := NewSystem(DefaultConfig())
		if _, err := s.Restore(dir); !errors.Is(err, durable.ErrNoSnapshot) {
			t.Fatalf("%s dir: err = %v, want ErrNoSnapshot", name, err)
		}
		if n := s.Pubs.Count(); n != 0 {
			t.Fatalf("%s dir: restored %d publications", name, n)
		}
	}

	corrupt := t.TempDir()
	if err := untrainedSystem(t, 5, 7, nil).Checkpoint(corrupt); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(corrupt, fmt.Sprintf("g%06d-%s", 1, GraphFile))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewSystem(DefaultConfig()).Restore(corrupt)
	if err == nil || errors.Is(err, durable.ErrNoSnapshot) {
		t.Fatalf("corrupt only generation: err = %v, want a non-ErrNoSnapshot error", err)
	}
}

// TestCheckpointRestoresGraphOver16MiB: a graph whose JSON is larger
// than any line buffer (200 × 200 branches, 30 papers per leaf: 40,220
// nodes) checkpoints and restores byte-identical.
func TestCheckpointRestoresGraphOver16MiB(t *testing.T) {
	s := NewSystem(DefaultConfig())
	papers := make([]string, 30)
	for i := 0; i < 200; i++ {
		branch, err := s.Graph.AddNode(s.Graph.RootID(), "branch "+code(i), "test")
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 200; j++ {
			for k := range papers {
				papers[k] = fmt.Sprintf("pub-%03d-%03d-%02d", i, j, k)
			}
			if _, err := s.Graph.AddNode(branch.ID, "leaf "+code(i)+code(j), "test", papers...); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := s.Graph.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= 16<<20 {
		t.Fatalf("graph JSON is only %d bytes", len(want))
	}
	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	s2 := NewSystem(DefaultConfig())
	if _, err := s2.Restore(dir); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got, err := s2.Graph.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Graph.Size() != s.Graph.Size() || !bytes.Equal(got, want) {
		t.Fatalf("restored graph differs: %d nodes, want %d", s2.Graph.Size(), s.Graph.Size())
	}
}

// code spells n < 676 as a word label normalisation keeps distinct: it
// drops digits and single letters and stems common suffixes.
func code(n int) string {
	return string([]byte{'x', byte('a' + n/26), byte('a' + n%26), 'z'})
}

// TestCheckpointRestoresPublicationOver16MiB: a publication the ingest
// path accepts — here with a 17 MiB field the index never reads — is
// written by Checkpoint as one JSON line and must restore.
func TestCheckpointRestoresPublicationOver16MiB(t *testing.T) {
	s := NewSystem(DefaultConfig())
	doc := cord19.NewGenerator(7).Publication().Doc()
	doc["_id"] = "big"
	doc["supplement"] = strings.Repeat("x", 17<<20)
	if rep := s.IngestDocs([]jsondoc.Doc{doc}); rep.Failed > 0 {
		t.Fatal(rep.Err())
	}
	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	s2 := NewSystem(DefaultConfig())
	if _, err := s2.Restore(dir); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got, err := s2.Pubs.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if got.GetString("supplement") != doc.GetString("supplement") {
		t.Fatal("17 MiB field did not round-trip")
	}
}

// TestFirstIngestAfterRestoreEnrichesOnlyItself is the regression test
// for the restart stall: the set of already-enriched publications was
// never persisted or rebuilt by Restore, and a server that restored its
// graph skips BuildKG, so the first ingest after a restart re-enriched
// every stored publication into the already-built graph. Enrichment now
// works from the documents the ingest just stored.
func TestFirstIngestAfterRestoreEnrichesOnlyItself(t *testing.T) {
	dir := t.TempDir()
	if err := untrainedSystem(t, 20, 7, nil).Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	s := NewSystem(DefaultConfig())
	if _, err := s.Restore(dir); err != nil {
		t.Fatal(err)
	}

	doc := cord19.NewGenerator(99).Publication().Doc()
	doc["_id"] = "after-restart"
	wantTables := len(doc.GetArray("tables"))
	if wantTables == 0 {
		t.Fatal("generated publication has no tables")
	}
	before := s.Graph.Size()
	if rep := s.IngestDocs([]jsondoc.Doc{doc}); rep.Failed > 0 {
		t.Fatal(rep.Err())
	}
	st := s.EnrichNew()
	if st.Tables != wantTables {
		t.Fatalf("first EnrichNew after a restore enriched %d tables, want the new document's %d", st.Tables, wantTables)
	}
	if grew := s.Graph.Size() - before; grew > st.Subtrees {
		t.Fatalf("graph grew by %d nodes from %d subtrees", grew, st.Subtrees)
	}
}

// TestRestoreClosesReplacedTier: an in-process Restore loads the
// publications into a fresh shard tier and closes the one it replaces,
// so 20 restores into one System leave no goroutine behind once its
// tier is closed.
func TestRestoreClosesReplacedTier(t *testing.T) {
	before := runtime.NumGoroutine()
	s := untrainedSystem(t, 20, 7, nil)
	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Restore(dir); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Pubs.Count(); got != 20 {
		t.Fatalf("restored tier serves %d publications, want 20", got)
	}
	s.Coord.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 20 restores and Close, want at most %d as before NewSystem", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
