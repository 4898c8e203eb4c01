package shardnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"covidkg/internal/jsondoc"
)

// frameWALPayload frames a raw payload the way wal.append does.
func frameWALPayload(payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// TestWALRefusesToTruncateIntactRecord is the regression test for the
// replay data-loss bug: a record whose length and checksum hold but
// which this build does not decode — a JSON record from before walBinV1
// was the only format, one from a build after it, or one carrying the
// retired op byte 3 — sits in the middle of the log. It is not a torn
// tail, every record behind it was acked, so open must fail and leave
// the file byte-for-byte alone.
func TestWALRefusesToTruncateIntactRecord(t *testing.T) {
	goodRecord := func(id string) []byte {
		payload, err := appendWALRecord(nil, walRecord{Op: "insert", ID: id, Doc: jsondoc.Doc{"_id": id}})
		if err != nil {
			t.Fatal(err)
		}
		return frameWALPayload(payload)
	}
	for name, foreign := range map[string][]byte{
		"json_record":    []byte(`{"op":"insert","id":"j","doc":{"_id":"j"}}`),
		"future_version": {0x02, walOpInsert, 1, 'f', 0, 0},
		"retired_op_3":   {walBinV1, 3, 1, 'p', 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			var log []byte
			for _, id := range []string{"a", "b", "c"} {
				log = append(log, goodRecord(id)...)
			}
			foreignAt := len(log)
			log = append(log, frameWALPayload(foreign)...)
			for _, id := range []string{"d", "e"} {
				log = append(log, goodRecord(id)...)
			}
			path := filepath.Join(t.TempDir(), "shard0.wal")
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}

			replayed := 0
			w, err := openWAL(path, func(walRecord) { replayed++ })
			if err == nil {
				w.close()
				t.Fatalf("open succeeded over an undecodable intact record (replayed %d, log now %d of %d bytes)", replayed, w.bytes(), len(log))
			}
			for _, want := range []string{fmt.Sprintf("byte offset %d", foreignAt), fmt.Sprintf("0x%02x", foreign[0])} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(log, after) {
				t.Fatalf("failed open changed the log: %d bytes before, %d after", len(log), len(after))
			}
		})
	}
}

// sameValue is reflect.DeepEqual over the jsondoc value domain with
// floats compared by bits, so a NaN the fuzzer invents equals itself.
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, xv := range x {
			if yv, ok := y[k]; !ok || !sameValue(xv, yv) {
				return false
			}
		}
		return true
	default:
		return a == b // nil, bool, string
	}
}

// hostileWALRecords claim far more than they carry: an id of 1 TiB and
// a document of 2^30 entries.
var hostileWALRecords = map[string][]byte{
	"huge_id":  append(appendUvarint([]byte{walBinV1, walOpInsert}, 1<<40), "tiny"...),
	"huge_doc": append(appendUvarint([]byte{walBinV1, walOpInsert, 0, 0, 1, bvObject}, 1<<30), "abcdefgh"...),
}

// FuzzDecodeWALRecord asserts the WAL record decoder — which reads
// whatever bytes a crash, a disk or another build left in the log —
// never panics, holds nothing it did not find in the input, and that
// whatever it accepts survives encode → decode unchanged in an encoding
// no longer than the input. (Byte-identical re-encoding is not a
// property the format has: objects are written in Go map order.)
func FuzzDecodeWALRecord(f *testing.F) {
	doc := jsondoc.Doc{"_id": "x", "n": 1.5, "tags": []any{"a", true, nil}, "sub": map[string]any{"k": "v"}}
	for _, rec := range []walRecord{
		{Op: "insert", ID: "x", Doc: doc, Idem: "k1"},
		{Op: "insert", ID: "x"},
		{Op: "delete", ID: "x", Idem: "k2"},
		{Op: "delete", ID: "x", Doc: doc},
		{Op: "insert", Doc: doc},
		{Op: "delete"},
	} {
		seed, err := appendWALRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{walBinV1})
	f.Add([]byte(`{"op":"insert","id":"j"}`))
	for _, p := range hostileWALRecords {
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeWALRecord(data)
		if err != nil {
			return
		}
		if len(rec.ID)+len(rec.Idem) > len(data) {
			t.Fatalf("decoded %d string bytes out of a %d-byte record", len(rec.ID)+len(rec.Idem), len(data))
		}
		enc, err := appendWALRecord(nil, rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if len(enc) > len(data) {
			t.Fatalf("re-encoding is %d bytes, input was %d", len(enc), len(data))
		}
		again, err := decodeWALRecord(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if again.Op != rec.Op || again.ID != rec.ID || again.Idem != rec.Idem ||
			len(again.Doc) != len(rec.Doc) || (len(rec.Doc) > 0 && !sameValue(map[string]any(again.Doc), map[string]any(rec.Doc))) {
			t.Fatalf("record changed across re-encoding:\nfirst:  %#v\nsecond: %#v", rec, again)
		}
	})
}

// TestWALDecodeRejectsWithoutAllocating pins reject-don't-allocate for
// the WAL decoder: a claimed length is checked against the bytes
// remaining before anything is sized from it.
func TestWALDecodeRejectsWithoutAllocating(t *testing.T) {
	for name, p := range hostileWALRecords {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := decodeWALRecord(p); err == nil {
				t.Errorf("%s: decode accepted a hostile record", name)
			}
		})
		if allocs > 10 {
			t.Errorf("%s: %v allocs rejecting a hostile record, want ≤10", name, allocs)
		}
	}
}

// holdWAL pretends a commit is in flight, so appenders gather in one
// open group instead of racing the file; the returned release lets that
// group's leader commit. The held state is exactly what a slow fsync
// looks like to an arriving appender.
func holdWAL(w *wal) (release func()) {
	w.mu.Lock()
	w.committing = true
	w.mu.Unlock()
	return func() {
		w.mu.Lock()
		w.committing = false
		w.idle.Signal()
		w.mu.Unlock()
	}
}

// gatherAppenders starts one appender per id behind a held WAL, waits
// until all of them sit in the open group, and returns the channel
// their outcomes arrive on.
func gatherAppenders(t *testing.T, w *wal, ids []string) chan error {
	t.Helper()
	want := 0
	for _, id := range ids {
		payload, err := appendWALRecord(nil, walRecord{Op: "insert", ID: id, Doc: jsondoc.Doc{"_id": id}})
		if err != nil {
			t.Fatal(err)
		}
		want += 8 + len(payload)
	}
	errs := make(chan error, len(ids)) // one send per appender
	for _, id := range ids {
		go func(id string) {
			errs <- w.append(walRecord{Op: "insert", ID: id, Doc: jsondoc.Doc{"_id": id}})
		}(id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		w.mu.Lock()
		got := 0
		if w.open != nil {
			got = len(*w.open.buf)
		}
		w.mu.Unlock()
		if got == want {
			return errs
		}
		if time.Now().After(deadline) {
			t.Fatalf("open group holds %d of %d bytes after 10s", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func walIDs(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s%03d", prefix, i)
	}
	return ids
}

// replayCounts reopens the log and returns how often each id replays and
// the log's size after any torn-tail truncation.
func replayCounts(t *testing.T, path string) (map[string]int, int64) {
	t.Helper()
	seen := map[string]int{}
	w, err := openWAL(path, func(rec walRecord) { seen[rec.ID]++ })
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	return seen, w.bytes()
}

// TestWALGroupCommit: concurrent appenders share fsyncs, each is acked
// only once its record is on disk, and the log replays exactly the acked
// set — every record once, nothing torn.
func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.wal")
	w, err := openWAL(path, func(walRecord) {})
	if err != nil {
		t.Fatal(err)
	}

	// Free-running: 64 appenders, 4 records each, no coordination.
	const appenders, each = 64, 4
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("free-%02d-%d", a, i)
				if err := w.append(walRecord{Op: "insert", ID: id, Doc: jsondoc.Doc{"_id": id}, Idem: "k-" + id}); err != nil {
					t.Errorf("append %s: %v", id, err)
				}
			}
		}(a)
	}
	wg.Wait()
	if got := w.fsyncs.Value(); got < 1 || got > appenders*each {
		t.Fatalf("%d fsyncs for %d appends", got, appenders*each)
	}

	// Gathered: 64 appenders that arrive during one slow commit cost one
	// fsync between them.
	before := w.fsyncs.Value()
	release := holdWAL(w)
	ids := walIDs("held-", 64)
	errs := gatherAppenders(t, w, ids)
	release()
	for range ids {
		if err := <-errs; err != nil {
			t.Fatalf("gathered append: %v", err)
		}
	}
	if got := w.fsyncs.Value() - before; got != 1 {
		t.Fatalf("64 gathered appends cost %d fsyncs, want 1", got)
	}

	size := w.bytes()
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	seen, replayedSize := replayCounts(t, path)
	if replayedSize != size {
		t.Fatalf("replay kept %d of %d bytes: the log was not CRC-clean", replayedSize, size)
	}
	if len(seen) != appenders*each+len(ids) {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), appenders*each+len(ids))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("record %s replayed %d times", id, n)
		}
	}
}

// TestWALGroupFailureFailsEveryWaiter: when the group's write or fsync
// fails, no member of that group is acked; the next group, on a healthy
// file, commits normally, and only its records replay.
func TestWALGroupFailureFailsEveryWaiter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.wal")
	w, err := openWAL(path, func(walRecord) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(walRecord{Op: "insert", ID: "first", Doc: jsondoc.Doc{"_id": "first"}}); err != nil {
		t.Fatal(err)
	}

	release := holdWAL(w)
	doomed := walIDs("doomed-", 16)
	errs := gatherAppenders(t, w, doomed)
	healthy := w.f
	broken, err := os.Open(path) // read-only: the write fails
	if err != nil {
		t.Fatal(err)
	}
	w.f = broken
	release()
	for range doomed {
		if err := <-errs; err == nil {
			t.Fatal("an appender was acked out of a group whose write failed")
		}
	}
	broken.Close()

	w.mu.Lock()
	w.f = healthy
	w.mu.Unlock()
	later := walIDs("later-", 8)
	var wg sync.WaitGroup
	for _, id := range later {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := w.append(walRecord{Op: "insert", ID: id, Doc: jsondoc.Doc{"_id": id}}); err != nil {
				t.Errorf("append %s after the file recovered: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	w.close()

	seen, _ := replayCounts(t, path)
	if len(seen) != 1+len(later) {
		t.Fatalf("replayed %d records (%v), want the %d acked ones", len(seen), seen, 1+len(later))
	}
	for _, id := range doomed {
		if seen[id] != 0 {
			t.Fatalf("unacked record %s replayed", id)
		}
	}
}
