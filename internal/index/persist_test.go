package index

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"covidkg/internal/durable"
	"covidkg/internal/faultfs"
)

// indexView captures the observable state the crash matrix compares:
// doc count plus posting lists for every term.
func indexView(ix *Index) map[string]any {
	view := map[string]any{"docs": ix.DocCount()}
	for _, t := range ix.Terms() {
		view["term:"+t] = ix.Lookup(t)
	}
	return view
}

func buildPersistIndex(n int) *Index {
	ix := New()
	ix.SetSealThreshold(0)
	docs := segTestDocs(n, 99)
	for _, d := range docs {
		for f, text := range d.fields {
			ix.Add(d.id, f, text)
		}
		ix.AddDoc(d.id, Analyze(nil), 0.5)
	}
	return ix
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ix := buildPersistIndex(60)
	ix.Seal()
	ix.Remove("doc-0003")
	if err := ix.Save(dir, faultfs.OS{}); err != nil {
		t.Fatal(err)
	}
	got, _, err := Load(dir, faultfs.OS{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(indexView(ix), indexView(got)) {
		t.Fatal("loaded index view differs from saved")
	}
	if a, b := ix.Static("doc-0005"), got.Static("doc-0005"); a != b {
		t.Fatalf("static lost: %v vs %v", a, b)
	}
	snaps := ix.TermSnapshots([]string{"mask", "vaccin"})
	lsnaps := got.TermSnapshots([]string{"mask", "vaccin"})
	if !reflect.DeepEqual(snaps, lsnaps) {
		t.Fatalf("snapshots diverged:\n%+v\nvs\n%+v", snaps, lsnaps)
	}
}

func TestLoadNoSnapshot(t *testing.T) {
	_, _, err := Load(t.TempDir(), faultfs.OS{})
	if !errors.Is(err, durable.ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

// TestSaveCrashMatrix crashes a second Save at every mutating
// filesystem operation — including the window between the segment file
// writes and the manifest commit — and requires recovery to always
// yield a complete generation: either the previous save's view or the
// new one, never an error or a torn hybrid.
func TestSaveCrashMatrix(t *testing.T) {
	v1 := buildPersistIndex(30)
	v1.Seal()
	v2 := buildPersistIndex(30)
	// v2 = v1 plus one more sealed segment and a tombstone.
	v2.Seal()
	v2.Add("extra-1", "title", "novel antigen escape")
	v2.Seal()
	v2.Remove("doc-0001")
	view1, view2 := indexView(v1), indexView(v2)

	// Dry run counts the crash points in the second save.
	countDir := t.TempDir()
	if err := v1.Save(countDir, faultfs.OS{}); err != nil {
		t.Fatal(err)
	}
	counter := &faultfs.CrashPolicy{}
	if err := v2.Save(countDir, faultfs.NewFaulty(faultfs.OS{}, counter)); err != nil {
		t.Fatal(err)
	}
	nOps := counter.Ops()
	if nOps < 4 {
		t.Fatalf("expected several mutating ops, counted %d", nOps)
	}

	for failAt := 1; failAt <= nOps; failAt++ {
		dir := filepath.Join(t.TempDir(), "idx")
		if err := v1.Save(dir, faultfs.OS{}); err != nil {
			t.Fatal(err)
		}
		crashFS := faultfs.NewFaulty(faultfs.OS{}, &faultfs.CrashPolicy{FailAt: failAt, Torn: true})
		if err := v2.Save(dir, crashFS); err == nil {
			t.Fatalf("failAt=%d: save unexpectedly succeeded", failAt)
		}
		got, rep, err := Load(dir, faultfs.OS{})
		if err != nil {
			t.Fatalf("failAt=%d: recovery failed: %v (report %v)", failAt, err, rep)
		}
		view := indexView(got)
		if !reflect.DeepEqual(view, view1) && !reflect.DeepEqual(view, view2) {
			t.Fatalf("failAt=%d: recovered view matches neither generation", failAt)
		}
	}
}
