package durable

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"covidkg/internal/faultfs"
)

func commitGen(t *testing.T, dir string, files map[string]string) uint64 {
	t.Helper()
	s := NewSnapshotter(dir)
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := tx.WriteFile(name, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tx.Generation()
}

func TestCommitLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gen := commitGen(t, dir, map[string]string{"a.jsonl": "line1\n", "b.bin": "xyz"})
	if gen != 1 {
		t.Fatalf("generation = %d", gen)
	}
	sn, report, err := NewSnapshotter(dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Generation != 1 || report.Source != "current" {
		t.Fatalf("gen=%d source=%s", sn.Generation, report.Source)
	}
	if b, _ := sn.ReadFile("a.jsonl"); string(b) != "line1\n" {
		t.Fatalf("a.jsonl = %q", b)
	}
	if !sn.Has("b.bin") || sn.Has("nope") {
		t.Fatal("Has is wrong")
	}
	if got := strings.Join(sn.Names(), ","); got != "a.jsonl,b.bin" {
		t.Fatalf("names = %s", got)
	}
}

func TestLoadEmptyDirIsNoSnapshot(t *testing.T) {
	_, _, err := NewSnapshotter(t.TempDir()).Load()
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v", err)
	}
	_, _, err = NewSnapshotter(filepath.Join(t.TempDir(), "missing")).Load()
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing dir: err = %v", err)
	}
}

// TestFallbackOnCorruptManifest: a corrupted newest manifest falls back
// to the previous generation with a discard record.
func TestFallbackOnCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	commitGen(t, dir, map[string]string{"a": "old"})
	commitGen(t, dir, map[string]string{"a": "new"})
	// flip a byte in MANIFEST-000002's body
	path := filepath.Join(dir, "MANIFEST-000002")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0xff
	os.WriteFile(path, b, 0o644)

	sn, report, err := NewSnapshotter(dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Generation != 1 {
		t.Fatalf("generation = %d, want fallback to 1", sn.Generation)
	}
	if len(report.Discarded) != 1 || report.Discarded[0].Generation != 2 {
		t.Fatalf("discards = %+v", report.Discarded)
	}
	if data, _ := sn.ReadFile("a"); string(data) != "old" {
		t.Fatalf("a = %q", data)
	}
}

// TestFallbackOnMissingCurrent: CURRENT deleted → scan still finds the
// newest valid generation.
func TestFallbackOnMissingCurrent(t *testing.T) {
	dir := t.TempDir()
	commitGen(t, dir, map[string]string{"a": "old"})
	commitGen(t, dir, map[string]string{"a": "new"})
	os.Remove(filepath.Join(dir, "CURRENT"))
	sn, report, err := NewSnapshotter(dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Generation != 2 || report.Source != "scan" {
		t.Fatalf("gen=%d source=%s", sn.Generation, report.Source)
	}
}

// TestGCKeepsWindow: old generations beyond the keep window disappear,
// the newest two remain loadable.
func TestGCKeepsWindow(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		commitGen(t, dir, map[string]string{"a": strings.Repeat("x", i+1)})
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if g, ok := parseGen(e.Name()); ok && g < 4 {
			t.Fatalf("generation %d survived GC: %s", g, e.Name())
		}
	}
	sn, _, err := NewSnapshotter(dir).Load()
	if err != nil || sn.Generation != 5 {
		t.Fatalf("gen=%d err=%v", sn.Generation, err)
	}
	// corrupt gen 5's data file: gen 4 must still be there to catch us
	path := filepath.Join(dir, "g000005-a")
	os.WriteFile(path, []byte("tampered"), 0o644)
	sn, report, err := NewSnapshotter(dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	if sn.Generation != 4 || len(report.Discarded) == 0 {
		t.Fatalf("gen=%d discards=%+v", sn.Generation, report.Discarded)
	}
}

// TestAbandonedTxnInvisible: files from a never-committed transaction
// are not visible to readers and are swept by the next commit's GC.
func TestAbandonedTxnInvisible(t *testing.T) {
	dir := t.TempDir()
	commitGen(t, dir, map[string]string{"a": "v1"})
	s := NewSnapshotter(dir)
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteFile("a", []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	// no Commit
	sn, _, err := NewSnapshotter(dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := sn.ReadFile("a"); string(b) != "v1" {
		t.Fatalf("abandoned txn leaked: %q", b)
	}
}

// TestGenerationsMonotonic: Begin numbers past crashed/abandoned
// generations so a recommit never reuses a dirty number.
func TestGenerationsMonotonic(t *testing.T) {
	dir := t.TempDir()
	commitGen(t, dir, map[string]string{"a": "v1"})
	s := NewSnapshotter(dir)
	tx, _ := s.Begin()
	tx.WriteFile("a", []byte("crashed")) // abandoned gen 2
	tx2, _ := NewSnapshotter(dir).Begin()
	if tx2.Generation() != 3 {
		t.Fatalf("next generation = %d, want 3", tx2.Generation())
	}
}

func TestTxnRejectsBadNames(t *testing.T) {
	s := NewSnapshotter(t.TempDir())
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "a/b", `a\b`} {
		if _, err := tx.Create(bad); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
	if err := tx.WriteFile("dup", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteFile("dup", []byte("y")); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	sealed := sealEnvelope([]byte(`{"k":1}`))
	b, err := openEnvelope(sealed)
	if err != nil || string(b) != `{"k":1}` {
		t.Fatalf("%q %v", b, err)
	}
	// corruption detected
	sealed[len(sealed)-1] ^= 0xff
	if _, err := openEnvelope(sealed); err == nil {
		t.Fatal("corrupt envelope opened silently")
	}
	// a body without the header is rejected, not passed through
	if _, err := openEnvelope([]byte("plain\n")); err == nil {
		t.Fatal("envelope-less body opened")
	}
}

func TestAtomicWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := atomicWrite(faultfs.OS{}, path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := atomicWrite(faultfs.OS{}, path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "v2" {
		t.Fatalf("%q", b)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("tmp file left behind")
	}
}
