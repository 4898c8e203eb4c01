package docstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"covidkg/internal/durable"
	"covidkg/internal/faultfs"
	"covidkg/internal/jsondoc"
)

// save commits c as one snapshot generation in dir through fs — the
// publications' half of core.System.Checkpoint.
func save(c *Collection, dir string, fs faultfs.FS) error {
	tx, err := durable.NewSnapshotter(dir, durable.WithFS(fs)).Begin()
	if err != nil {
		return err
	}
	if err := SaveTxn(tx, c); err != nil {
		return err
	}
	return tx.Commit()
}

// load fills c from the newest verifiable generation in dir — the
// publications' half of core.System.Restore.
func load(c *Collection, dir string) (*durable.Report, error) {
	sn, report, err := durable.NewSnapshotter(dir).Load()
	if err != nil {
		return report, err
	}
	return report, LoadSnapshot(sn, c)
}

// writeSnapshot commits files verbatim as one generation in a fresh
// dir, so tests can hand LoadSnapshot lines no store would write.
func writeSnapshot(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	tx, err := durable.NewSnapshotter(dir).Begin()
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
	return dir
}

// TestLoadCorruptedLine: a broken JSON line must fail loudly with the
// line number, not silently drop data.
func TestLoadCorruptedLine(t *testing.T) {
	content := `{"_id":"a","x":1}` + "\n" + `{"broken` + "\n" + `{"_id":"b","x":2}` + "\n"
	dir := writeSnapshot(t, map[string]string{"pubs.jsonl": content})
	_, err := load(Open().Collection("pubs"), dir)
	if err == nil {
		t.Fatal("corrupted file loaded silently")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks line number: %v", err)
	}
}

// TestLoadDuplicateIDs: duplicate _id lines must be rejected.
func TestLoadDuplicateIDs(t *testing.T) {
	content := `{"_id":"a","x":1}` + "\n" + `{"_id":"a","x":2}` + "\n"
	dir := writeSnapshot(t, map[string]string{"pubs.jsonl": content})
	if _, err := load(Open().Collection("pubs"), dir); err == nil {
		t.Fatal("duplicate ids loaded silently")
	}
}

// TestLoadSkipsBlankLinesAndForeignFiles: blank lines are skipped, and
// non-.jsonl snapshot files (a checkpoint's graph and models) are not
// collections.
func TestLoadSkipsBlankLinesAndForeignFiles(t *testing.T) {
	dir := writeSnapshot(t, map[string]string{
		"pubs.jsonl":           "\n" + `{"_id":"a","x":1}` + "\n\n",
		"knowledge_graph.json": `{"_id":"kg"}`,
	})
	c := Open().Collection("pubs")
	if _, err := load(c, dir); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 1 {
		t.Fatalf("count = %d", c.Count())
	}
}

// TestSaveToUnwritableDir surfaces the error.
func TestSaveToUnwritableDir(t *testing.T) {
	c := Open().Collection("pubs")
	c.Insert(jsondoc.Doc{"x": 1})
	if err := save(c, "/proc/definitely/not/writable", faultfs.OS{}); err == nil {
		t.Fatal("save into unwritable path succeeded")
	}
}

// TestSaveDeterministic: two saves of the same store are byte-identical
// (compared through the snapshot manifest, which also verifies CRCs).
func TestSaveDeterministic(t *testing.T) {
	c := Open(WithShards(3)).Collection("pubs")
	for i := 0; i < 40; i++ {
		c.Insert(jsondoc.Doc{"i": i})
	}
	d1, d2 := t.TempDir(), t.TempDir()
	if err := save(c, d1, faultfs.OS{}); err != nil {
		t.Fatal(err)
	}
	if err := save(c, d2, faultfs.OS{}); err != nil {
		t.Fatal(err)
	}
	read := func(dir string) []byte {
		sn, _, err := durable.NewSnapshotter(dir).Load()
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		b, err := sn.ReadFile("pubs.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := read(d1), read(d2)
	if string(b1) != string(b2) {
		t.Fatal("saves differ")
	}
	if len(b1) == 0 {
		t.Fatal("empty save")
	}
}

// ---------------------------------------------------------------------
// fault-injected crash recovery

// testStore builds a deterministic collection whose every document
// carries tag, so two generations are easy to tell apart.
func testStore(docs int, tag string) *Collection {
	c := Open(WithShards(3)).Collection("pubs")
	for i := 0; i < docs; i++ {
		c.Insert(jsondoc.Doc{"_id": fmt.Sprintf("p%03d", i), "v": tag, "i": i})
	}
	return c
}

// dump renders the collection's full contents, sorted, so collections
// compare equal when their documents do.
func dump(c *Collection) string {
	var lines []string
	if err := c.ScanContext(context.Background(), func(d jsondoc.Doc) bool {
		lines = append(lines, string(d.JSON()))
		return true
	}); err != nil {
		lines = append(lines, "scan: "+err.Error())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestCrashMatrix is the acceptance check for the durability layer: for
// EVERY mutating-I/O crash point of a second-generation save — plain
// failures and torn writes — a subsequent load must recover either the
// complete old snapshot or the complete new one, never a mix, never an
// error, and the report must name the recovered generation.
func TestCrashMatrix(t *testing.T) {
	// count the crash surface of a gen-2 save once
	probeDir := t.TempDir()
	if err := save(testStore(12, "old"), probeDir, faultfs.OS{}); err != nil {
		t.Fatal(err)
	}
	counter := &faultfs.CrashPolicy{}
	if err := save(testStore(13, "new"), probeDir, faultfs.NewFaulty(faultfs.OS{}, counter)); err != nil {
		t.Fatal(err)
	}
	nOps := counter.Ops()
	if nOps < 10 {
		t.Fatalf("suspiciously few crash points: %d", nOps)
	}

	oldWant := dump(testStore(12, "old"))
	newWant := dump(testStore(13, "new"))

	for _, torn := range []bool{false, true} {
		for failAt := 1; failAt <= nOps; failAt++ {
			name := fmt.Sprintf("torn=%v/failAt=%d", torn, failAt)
			dir := t.TempDir()
			if err := save(testStore(12, "old"), dir, faultfs.OS{}); err != nil {
				t.Fatal(err)
			}
			policy := &faultfs.CrashPolicy{FailAt: failAt, Torn: torn}
			saveErr := save(testStore(13, "new"), dir, faultfs.NewFaulty(faultfs.OS{}, policy))

			recovered := Open().Collection("pubs")
			report, err := load(recovered, dir)
			if err != nil {
				t.Fatalf("%s: load after crash: %v", name, err)
			}
			got := dump(recovered)
			switch got {
			case oldWant:
				if saveErr == nil {
					t.Fatalf("%s: save reported success but new data is gone", name)
				}
				if report.Generation != 1 {
					t.Fatalf("%s: old data but report says gen %d", name, report.Generation)
				}
			case newWant:
				// a save that failed only in post-commit GC still counts as
				// committed; generation must be the new one either way
				if report.Generation != 2 {
					t.Fatalf("%s: new data but report says gen %d", name, report.Generation)
				}
			default:
				t.Fatalf("%s: recovered a MIX of generations:\n%s", name, got)
			}
		}
	}
}

// TestSaveFailOnRename: a rename failure during save must leave the
// previous generation loadable and be reported to the caller.
func TestSaveFailOnRename(t *testing.T) {
	dir := t.TempDir()
	if err := save(testStore(8, "old"), dir, faultfs.OS{}); err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 3; call++ { // the data file, the manifest, CURRENT
		policy := &faultfs.OpFailPolicy{Op: faultfs.OpRename, OnCall: call}
		if err := save(testStore(8, "new"), dir, faultfs.NewFaulty(faultfs.OS{}, policy)); err == nil {
			t.Fatalf("rename #%d: save swallowed the failure", call)
		} else if !strings.Contains(err.Error(), "injected") {
			t.Fatalf("rename #%d: unexpected error: %v", call, err)
		}
		recovered := Open().Collection("pubs")
		report, err := load(recovered, dir)
		if err != nil {
			t.Fatalf("rename #%d: load: %v", call, err)
		}
		if got := dump(recovered); got != dump(testStore(8, "old")) {
			t.Fatalf("rename #%d: old generation not recovered byte-identically", call)
		}
		if report.Generation != 1 {
			t.Fatalf("rename #%d: report generation = %d", call, report.Generation)
		}
	}
}

// TestSaveFailOnSync: same for fsync failures.
func TestSaveFailOnSync(t *testing.T) {
	dir := t.TempDir()
	if err := save(testStore(8, "old"), dir, faultfs.OS{}); err != nil {
		t.Fatal(err)
	}
	policy := &faultfs.OpFailPolicy{Op: faultfs.OpSync, OnCall: 1}
	if err := save(testStore(8, "new"), dir, faultfs.NewFaulty(faultfs.OS{}, policy)); err == nil {
		t.Fatal("sync failure swallowed")
	}
	recovered := Open().Collection("pubs")
	report, err := load(recovered, dir)
	if err != nil {
		t.Fatal(err)
	}
	if report.Generation != 1 {
		t.Fatalf("report generation = %d, want 1", report.Generation)
	}
}

// TestTornDataFileFallsBack: corrupting a committed generation's data
// file after the fact (bit rot, torn final line) must make Load fall
// back to the previous generation and report the discard.
func TestTornDataFileFallsBack(t *testing.T) {
	dir := t.TempDir()
	if err := save(testStore(8, "old"), dir, faultfs.OS{}); err != nil {
		t.Fatal(err)
	}
	if err := save(testStore(9, "new"), dir, faultfs.OS{}); err != nil {
		t.Fatal(err)
	}
	// tear the newest generation's pubs file: drop the final line and half
	// of the one before it
	path := filepath.Join(dir, "g000002-pubs.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	recovered := Open().Collection("pubs")
	report, err := load(recovered, dir)
	if err != nil {
		t.Fatalf("load with torn gen-2 file: %v", err)
	}
	if report.Generation != 1 {
		t.Fatalf("recovered gen %d, want fallback to 1", report.Generation)
	}
	if len(report.Discarded) == 0 {
		t.Fatal("report does not mention the discarded generation")
	}
	if got, want := dump(recovered), dump(testStore(8, "old")); got != want {
		t.Fatal("fallback generation differs from the original bytes")
	}
}
