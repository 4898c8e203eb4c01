package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/faultfs"
	"covidkg/internal/jsondoc"
)

// writeLegacyCollection dumps one collection as a bare pre-durability
// jsonl file.
func writeLegacyCollection(t *testing.T, dir string, s *System, name string) {
	t.Helper()
	var b bytes.Buffer
	if err := s.Store.Collection(name).ScanContext(context.Background(), func(d jsondoc.Doc) bool {
		b.Write(d.JSON())
		b.WriteByte('\n')
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".jsonl"), b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

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

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := untrainedSystem(t, 20, 7, nil)
	wantPubs, wantNodes := s.Pubs.Count(), s.Graph.Size()
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
	if got := s2.Pubs.Count(); got != wantPubs {
		t.Fatalf("pubs = %d, want %d", got, wantPubs)
	}
	if got := s2.Graph.Size(); got != wantNodes {
		t.Fatalf("graph = %d nodes, want %d", got, wantNodes)
	}

	// a second checkpoint advances the generation
	if err := s2.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	s3 := NewSystem(DefaultConfig())
	report, err = s3.Restore(dir)
	if err != nil || report.Generation != 2 {
		t.Fatalf("gen=%d err=%v", report.Generation, err)
	}
}

// TestCheckpointCrashRecovery drives the acceptance criterion at the
// system level: crash a second checkpoint at every mutating-I/O point
// and require Restore to come back with exactly the old state or
// exactly the new one — publications, graph and all — plus a report
// naming the generation.
func TestCheckpointCrashRecovery(t *testing.T) {
	// count the crash surface of the second checkpoint
	probe := t.TempDir()
	if err := untrainedSystem(t, 12, 7, nil).Checkpoint(probe); err != nil {
		t.Fatal(err)
	}
	counter := &faultfs.CrashPolicy{}
	if err := untrainedSystem(t, 14, 8, faultfs.NewFaulty(faultfs.OS{}, counter)).Checkpoint(probe); err != nil {
		t.Fatal(err)
	}
	nOps := counter.Ops()

	oldRef := untrainedSystem(t, 12, 7, nil)
	newRef := untrainedSystem(t, 14, 8, nil)

	for failAt := 1; failAt <= nOps; failAt++ {
		name := fmt.Sprintf("failAt=%d", failAt)
		dir := t.TempDir()
		if err := untrainedSystem(t, 12, 7, nil).Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		policy := &faultfs.CrashPolicy{FailAt: failAt}
		crashed := untrainedSystem(t, 14, 8, faultfs.NewFaulty(faultfs.OS{}, policy))
		saveErr := crashed.Checkpoint(dir)

		s := NewSystem(DefaultConfig())
		report, err := s.Restore(dir)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		switch report.Generation {
		case 1:
			if saveErr == nil {
				t.Fatalf("%s: checkpoint claimed success but gen 2 is gone", name)
			}
			if s.Pubs.Count() != oldRef.Pubs.Count() || s.Graph.Size() != oldRef.Graph.Size() {
				t.Fatalf("%s: gen 1 state mismatch: pubs=%d graph=%d", name, s.Pubs.Count(), s.Graph.Size())
			}
		case 2:
			if s.Pubs.Count() != newRef.Pubs.Count() || s.Graph.Size() != newRef.Graph.Size() {
				t.Fatalf("%s: gen 2 state mismatch: pubs=%d graph=%d", name, s.Pubs.Count(), s.Graph.Size())
			}
		default:
			t.Fatalf("%s: recovered unexpected generation %d", name, report.Generation)
		}
	}
}

// TestRestoreLegacyDir: a pre-durability bare-jsonl directory restores
// through the legacy path.
func TestRestoreLegacyDir(t *testing.T) {
	dir := t.TempDir()
	s := untrainedSystem(t, 10, 7, nil)
	if err := s.PersistGraph(); err != nil {
		t.Fatal(err)
	}
	// write the legacy layout by hand: one bare jsonl per collection
	for _, name := range s.Store.CollectionNames() {
		writeLegacyCollection(t, dir, s, name)
	}
	s2 := NewSystem(DefaultConfig())
	report, err := s2.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if report.Source != "legacy" {
		t.Fatalf("source = %q", report.Source)
	}
	if s2.Pubs.Count() != s.Pubs.Count() || s2.Graph.Size() != s.Graph.Size() {
		t.Fatalf("legacy restore mismatch: pubs=%d graph=%d", s2.Pubs.Count(), s2.Graph.Size())
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
