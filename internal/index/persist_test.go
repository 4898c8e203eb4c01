package index

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"strings"
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

// saveIndex writes ix into a new generation under dir through fs, as a
// system checkpoint does, and commits it.
func saveIndex(ix *Index, dir string, fs faultfs.FS) error {
	tx, err := durable.NewSnapshotter(dir, durable.WithFS(fs)).Begin()
	if err != nil {
		return err
	}
	if err := ix.WriteTxn(tx); err != nil {
		return err
	}
	return tx.Commit()
}

// loadIndex reads the index from the newest committed generation under
// dir.
func loadIndex(dir string) (*Index, *durable.Report, error) {
	sn, rep, err := durable.NewSnapshotter(dir).Load()
	if err != nil {
		return nil, rep, err
	}
	ix, err := Read(sn)
	return ix, rep, err
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ix := buildPersistIndex(60)
	ix.Seal()
	ix.Remove("doc-0003")
	if err := saveIndex(ix, dir, faultfs.OS{}); err != nil {
		t.Fatal(err)
	}
	got, _, err := loadIndex(dir)
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
	if !reflect.DeepEqual(ix.LiveIDs(), got.LiveIDs()) || got.LiveIDs()["doc-0003"] {
		t.Fatal("live ids differ, or the removed document came back")
	}
	if got.WriteSeq() != 0 {
		t.Fatalf("reading the index wrote to it: WriteSeq = %d", got.WriteSeq())
	}
}

// TestLoadNoSnapshot: a generation without the index files (a checkpoint
// from before the index was part of it), or with a segment in another
// format, is an error, on which a restore re-indexes instead.
func TestLoadNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	tx, err := durable.NewSnapshotter(dir).Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteFile("publications.jsonl", nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if ix, _, err := loadIndex(dir); err == nil || ix != nil || !strings.Contains(err.Error(), "index.json") {
		t.Fatalf("generation without index.json: index %v, err = %v", ix, err)
	}

	ix := buildPersistIndex(10)
	ix.Seal()
	data := encodeSegment(ix.segs[0])
	data[len(segMagic)-1]++
	if _, err := decodeSegment(data); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("segment in another format: err = %v", err)
	}
}

// TestSaveCrashMatrix crashes a second save at every mutating
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
	if err := saveIndex(v1, countDir, faultfs.OS{}); err != nil {
		t.Fatal(err)
	}
	counter := &faultfs.CrashPolicy{}
	if err := saveIndex(v2, countDir, faultfs.NewFaulty(faultfs.OS{}, counter)); err != nil {
		t.Fatal(err)
	}
	nOps := counter.Ops()
	if nOps < 4 {
		t.Fatalf("expected several mutating ops, counted %d", nOps)
	}

	for failAt := 1; failAt <= nOps; failAt++ {
		dir := filepath.Join(t.TempDir(), "idx")
		if err := saveIndex(v1, dir, faultfs.OS{}); err != nil {
			t.Fatal(err)
		}
		crashFS := faultfs.NewFaulty(faultfs.OS{}, &faultfs.CrashPolicy{FailAt: failAt, Torn: true})
		if err := saveIndex(v2, dir, crashFS); err == nil {
			t.Fatalf("failAt=%d: save unexpectedly succeeded", failAt)
		}
		got, rep, err := loadIndex(dir)
		if err != nil {
			t.Fatalf("failAt=%d: recovery failed: %v (report %v)", failAt, err, rep)
		}
		view := indexView(got)
		if !reflect.DeepEqual(view, view1) && !reflect.DeepEqual(view, view2) {
			t.Fatalf("failAt=%d: recovered view matches neither generation", failAt)
		}
	}
}

// FuzzDecodeSegment: a segment read from disk is untrusted. Any input
// decodes to an error or to a segment every read path can walk, and
// never panics or allocates past its size; an accepted segment encodes
// to bytes that decode and encode again unchanged, and a sealed one
// round-trips byte for byte.
func FuzzDecodeSegment(f *testing.F) {
	ix := buildPersistIndex(100) // several terms span two posting blocks
	ix.Seal()
	ix.Remove("doc-0007")
	sealed := encodeSegment(ix.segs[0])
	s, err := decodeSegment(sealed)
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Equal(encodeSegment(s), sealed) {
		f.Fatal("a sealed segment does not round-trip byte for byte")
	}
	f.Add(sealed)
	for i := 1; i < 16; i++ {
		f.Add(sealed[:len(sealed)*i/16])
	}
	hdr := []byte(segMagic + "\x00")
	f.Add(binary.AppendUvarint(append(hdr, 1), 1<<63+7))     // a string length past MaxInt
	f.Add(append(binary.AppendUvarint(hdr, 1<<40), 0, 0, 0)) // 2^40 documents in 17 bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSegment(data)
		if err != nil {
			return
		}
		for tid := range s.terms {
			s.live(tid)
		}
		for ord := range s.docIDs {
			s.termsOf(ord)
			for fid := range s.fields {
				s.fieldLenOf(ord, fid)
			}
		}
		enc := encodeSegment(s)
		s2, err := decodeSegment(enc)
		if err != nil {
			t.Fatalf("re-encoded segment rejected: %v", err)
		}
		if !bytes.Equal(encodeSegment(s2), enc) {
			t.Fatal("re-encoded segment does not round-trip")
		}
	})
}
