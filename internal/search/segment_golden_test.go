package search

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/durable"
)

var updateSegmentGolden = flag.Bool("update-segment-golden", false,
	"rewrite testdata/segment_golden.json from the segment this build seals")

const segmentGoldenFile = "testdata/segment_golden.json"

// segmentGolden identifies the encoded bytes of one sealed segment.
type segmentGolden struct {
	Docs   int    `json:"docs"`
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// TestSegmentGolden pins what indexing writes: the seed-42 500-publication
// corpus indexed by NewEngine and sealed into one segment must encode to
// exactly the bytes it did when the file was recorded (commit 24e478b,
// while a document was still indexed through one Index.Add per text).
// Postings, positions, field lengths, static scores and the bit patterns
// of every per-term bound are all inside those bytes.
func TestSegmentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("indexes the 500-publication corpus")
	}
	coll := docstore.Open(docstore.WithShards(4)).Collection("pubs")
	for _, p := range cord19.NewGenerator(42).Corpus(500) {
		if _, err := coll.Insert(p.Doc()); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(coll)
	dir := t.TempDir()
	tx, err := durable.NewSnapshotter(dir).Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Index().WriteTxn(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := durable.NewSnapshotter(dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Segments []string `json:"segments"`
	}
	mb, err := snap.ReadFile("index.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &meta); err != nil {
		t.Fatal(err)
	}
	if len(meta.Segments) != 1 {
		t.Fatalf("sealed into %d segments, want 1", len(meta.Segments))
	}
	seg, err := snap.ReadFile(meta.Segments[0])
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(seg)
	got := segmentGolden{Docs: e.Index().DocCount(), Bytes: len(seg), SHA256: hex.EncodeToString(sum[:])}
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	if *updateSegmentGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segmentGoldenFile, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(segmentGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("sealed segment changed:\ngot  %s\nwant %s", blob, want)
	}
}
