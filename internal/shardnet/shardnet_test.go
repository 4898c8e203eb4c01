package shardnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"covidkg/internal/breaker"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/retry"
	"covidkg/internal/search"
)

// startServer runs an in-process shard server on an ephemeral port.
func startServer(t *testing.T, name, walPath string) (*Server, string) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Name: name, WALPath: walPath, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewServer(%s): %v", name, err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start(%s): %v", name, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

// fastCfg keeps transport timeouts tight so failure tests run quickly.
func fastCfg() Config {
	return Config{
		DialTimeout: 250 * time.Millisecond,
		CallTimeout: 2 * time.Second,
		Breaker:     breaker.Config{Threshold: 3, Cooldown: 50 * time.Millisecond},
		ReadRetry:   retry.Config{Attempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
		WriteRetry:  retry.Config{Attempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	}
}

func dialCoord(t *testing.T, cfg Config, addrs ...string) *Coordinator {
	t.Helper()
	co, err := Dial(cfg, addrs)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(co.Close)
	return co
}

func pubDoc(id string, i int) jsondoc.Doc {
	return jsondoc.Doc{
		"_id":      id,
		"title":    fmt.Sprintf("coronavirus transmission study %d", i),
		"abstract": fmt.Sprintf("evidence on covid spread in cohort %d", i),
	}
}

func TestCoordinatorRoundTrip(t *testing.T) {
	_, a0 := startServer(t, "shard0", "")
	_, a1 := startServer(t, "shard1", "")
	co := dialCoord(t, fastCfg(), a0, a1)

	ids := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		id, err := co.Insert(pubDoc(fmt.Sprintf("p%03d", i), i))
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	if got := co.Count(); got != 40 {
		t.Fatalf("Count = %d, want 40", got)
	}
	for _, id := range ids {
		d, err := co.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if d["_id"] != id {
			t.Fatalf("Get(%s) returned _id %v", id, d["_id"])
		}
	}
	if got := len(co.IDs()); got != 40 {
		t.Fatalf("len(IDs) = %d, want 40", got)
	}
	seen := 0
	if err := co.ScanContext(context.Background(), func(d jsondoc.Doc) bool { seen++; return true }); err != nil {
		t.Fatalf("ScanContext: %v", err)
	}
	if seen != 40 {
		t.Fatalf("ScanContext visited %d docs, want 40", seen)
	}
	// Placement must agree between routing and reporting.
	for _, id := range ids {
		if si := co.ShardOfID(id); si < 0 || si >= 2 {
			t.Fatalf("ShardOfID(%s) = %d out of range", id, si)
		}
	}
	if err := co.Delete(ids[0]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := co.Get(ids[0]); !errors.Is(err, docstore.ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
	// Duplicate insert is rejected with the sentinel across the wire.
	if _, err := co.Insert(pubDoc(ids[1], 1)); !errors.Is(err, docstore.ErrDuplicateID) {
		t.Fatalf("duplicate Insert = %v, want ErrDuplicateID", err)
	}
}

// TestTransportWrappedErrorsMapToMissingShards is the regression test
// for the ShardOfError hardening: an error that crossed the wire and
// was re-wrapped by the transport must still unwrap into the
// dark-shard classification (errors.Is + errors.As), so degraded
// search pages name the missing shard exactly as in-process.
func TestTransportWrappedErrorsMapToMissingShards(t *testing.T) {
	_, a0 := startServer(t, "shard0", "")
	srv1, a1 := startServer(t, "shard1", "")

	co := dialCoord(t, fastCfg(), a0, a1)
	eng := search.NewEngine(co)

	// Ingest through the engine while both shards are live so the index
	// holds candidates on both sides of the split.
	var deadID string
	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("doc%04d", i)
		if _, err := eng.AddDocument(pubDoc(id, i)); err != nil {
			t.Fatalf("AddDocument(%s): %v", id, err)
		}
		if co.ShardOfID(id) == 1 {
			deadID = id
		}
	}
	if deadID == "" {
		t.Fatal("no test id landed on shard 1")
	}

	// Kill shard 1: further connections are refused.
	srv1.Close()

	_, gerr := co.Get(deadID)
	if gerr == nil {
		t.Fatal("Get from dead shard succeeded")
	}
	if !errors.Is(gerr, docstore.ErrShardUnavailable) {
		t.Fatalf("errors.Is(err, ErrShardUnavailable) = false for %v", gerr)
	}
	if si, ok := docstore.ShardOfError(gerr); !ok || si != 1 {
		t.Fatalf("ShardOfError = (%d, %v), want (1, true): %v", si, ok, gerr)
	}
	if si, ok := docstore.UnavailableShard(gerr); !ok || si != 1 {
		t.Fatalf("UnavailableShard = (%d, %v), want (1, true)", si, ok)
	}
	// The write classification survives inside the same chain.
	if !errors.Is(gerr, ErrNotSent) {
		t.Fatalf("transport classification lost from chain: %v", gerr)
	}

	// Full stack: the search engine over the coordinator degrades into a
	// Partial page naming shard 1, same as the in-process tier.
	page, err := eng.SearchAllContext(context.Background(), "coronavirus", 1)
	if err != nil {
		t.Fatalf("SearchAll over degraded coordinator: %v", err)
	}
	if !page.Partial {
		t.Fatal("page.Partial = false with a dark shard")
	}
	found := false
	for _, si := range page.MissingShards {
		if si == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("page.MissingShards = %v, want to include 1", page.MissingShards)
	}
}

// TestBatchIngestWithDarkShard: a batch ingested through the search
// engine fans its inserts out over the coordinator; with one shard dark,
// exactly the documents placed on that shard fail — each with the
// dark-shard error — none of them is indexed, and the rest of the batch
// is stored, indexed and acked over WALs that shared fsyncs.
func TestBatchIngestWithDarkShard(t *testing.T) {
	dir := t.TempDir()
	srv0, a0 := startServer(t, "shard0", filepath.Join(dir, "shard0.wal"))
	srv1, a1 := startServer(t, "shard1", filepath.Join(dir, "shard1.wal"))
	co := dialCoord(t, fastCfg(), a0, a1)
	eng := search.NewEngine(co)
	srv1.Close()

	batch := make([]jsondoc.Doc, 64)
	for i := range batch {
		batch[i] = pubDoc(fmt.Sprintf("dark%04d", i), i)
	}
	live := 0
	for i, a := range eng.AddDocuments(batch) {
		id := batch[i].GetString("_id")
		if co.ShardOfID(id) == 1 {
			if si, ok := docstore.UnavailableShard(a.Err); !ok || si != 1 {
				t.Errorf("document %d on the dark shard: err = %v, want shard 1 unavailable", i, a.Err)
			}
			continue
		}
		live++
		if a.Err != nil || a.ID != id {
			t.Errorf("document %d on the live shard: (%q, %v)", i, a.ID, a.Err)
		}
	}
	if live == 0 || live == len(batch) {
		t.Fatalf("%d of %d documents on the live shard; the split is not exercised", live, len(batch))
	}
	if got := eng.Index().DocCount(); got != live {
		t.Fatalf("%d documents indexed, want the %d stored on the live shard", got, live)
	}
	if got := srv0.Collection().Count(); got != live {
		t.Fatalf("live shard holds %d documents, want %d", got, live)
	}
	inserts := srv0.met.Counter("shardnet.server.inserts").Value()
	fsyncs := srv0.met.Counter("shardnet.server.wal_fsyncs").Value()
	if inserts != int64(live) || fsyncs < 1 || fsyncs > inserts {
		t.Fatalf("live shard: %d inserts, %d wal fsyncs, want %d inserts and between 1 and that many fsyncs", inserts, fsyncs, live)
	}
}

func TestWALReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "shard0.wal")

	srv, err := NewServer(ServerConfig{Name: "shard0", WALPath: walPath, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := srv.coll.Insert(pubDoc(fmt.Sprintf("w%03d", i), i)); err != nil {
			t.Fatal(err)
		}
		if err := srv.wal.append(walRecord{Op: "insert", ID: fmt.Sprintf("w%03d", i), Doc: pubDoc(fmt.Sprintf("w%03d", i), i), Idem: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	srv.coll.Delete("w003")
	srv.wal.append(walRecord{Op: "delete", ID: "w003"})
	// Simulate SIGKILL: no Close, no flush beyond what append fsynced.

	// Torn tail: append garbage past the last intact record.
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad}) // truncated header+crc
	f.Close()

	srv2, err := NewServer(ServerConfig{Name: "shard0", WALPath: walPath, Logf: t.Logf})
	if err != nil {
		t.Fatalf("replay after crash: %v", err)
	}
	defer srv2.Close()
	if got := srv2.coll.Count(); got != 24 {
		t.Fatalf("after replay Count = %d, want 24", got)
	}
	if _, err := srv2.coll.Get("w003"); !errors.Is(err, docstore.ErrNotFound) {
		t.Fatalf("deleted doc resurrected after replay: %v", err)
	}
	// Idempotency table survived the crash: a replayed key returns the
	// recorded outcome instead of re-applying.
	if out, ok := srv2.lookupIdem("k7"); !ok || out.id != "w007" {
		t.Fatalf("idem table after replay: (%+v, %v), want id w007", out, ok)
	}

	// The torn tail was truncated: a third replay sees the same state.
	srv3, err := NewServer(ServerConfig{Name: "shard0", WALPath: walPath, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	if got := srv3.coll.Count(); got != 24 {
		t.Fatalf("after second replay Count = %d, want 24", got)
	}

	// A crash inside a multi-record run (one write, one fsync) tears it
	// like any other tail: the records before the tear replay, the file is
	// cut where the torn one began.
	runPath := filepath.Join(dir, "run.wal")
	w, err := openWAL(runPath, func(walRecord) {})
	if err != nil {
		t.Fatal(err)
	}
	run := []walRecord{
		{Op: "insert", ID: "r1", Doc: pubDoc("r1", 1)},
		{Op: "insert", ID: "r2", Doc: pubDoc("r2", 2)},
		{Op: "delete", ID: "r1"},
	}
	if err := w.append(run...); err != nil {
		t.Fatal(err)
	}
	if got := w.fsyncs.Value(); got != 1 {
		t.Fatalf("a three-record run cost %d fsyncs, want 1", got)
	}
	w.close()
	first, err := appendWALRecord(nil, run[0])
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := int64(8 + len(first))
	if err := os.Truncate(runPath, firstEnd+8+5); err != nil { // header + 5 payload bytes of r2
		t.Fatal(err)
	}
	var replayed []string
	w, err = openWAL(runPath, func(rec walRecord) { replayed = append(replayed, rec.ID) })
	if err != nil {
		t.Fatalf("replay of a run torn midway: %v", err)
	}
	defer w.close()
	if len(replayed) != 1 || replayed[0] != "r1" {
		t.Fatalf("replayed %v from a run torn inside its second record, want [r1]", replayed)
	}
	if fi, err := os.Stat(runPath); err != nil || fi.Size() != firstEnd || w.bytes() != firstEnd {
		t.Fatalf("log is %d bytes (wal says %d, stat err %v), want it cut at %d", fi.Size(), w.bytes(), err, firstEnd)
	}
}

func TestIdempotentInsertAcrossRetry(t *testing.T) {
	srv, addr := startServer(t, "shard0", "")
	cl := newShardClient("shard0", addr, clientOpts{})

	doc := pubDoc("idem-doc", 1)
	req := &request{Op: opInsert, Shard: 0, IdemKey: "retry-key-1", Doc: doc}
	r1, err := cl.call(context.Background(), req)
	if err != nil {
		t.Fatalf("first insert: %v", err)
	}
	// Same key again — e.g. the ack was lost and the client retried.
	r2, err := cl.call(context.Background(), &request{Op: opInsert, Shard: 0, IdemKey: "retry-key-1", Doc: doc})
	if err != nil {
		t.Fatalf("retried insert: %v", err)
	}
	if r1.ID != r2.ID {
		t.Fatalf("retry changed outcome: %q vs %q", r1.ID, r2.ID)
	}
	if got := srv.coll.Count(); got != 1 {
		t.Fatalf("Count = %d after idempotent retry, want 1", got)
	}
}

func TestDeadlinePropagation(t *testing.T) {
	_, addr := startServer(t, "shard0", "")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	exchange := func(corr uint64, req *request) *response {
		t.Helper()
		frame, err := appendRequestFrame(nil, corr, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		payload, err := readRawFrame(br, &buf)
		if err != nil {
			t.Fatal(err)
		}
		gotCorr, resp, err := decodeBinaryResponse(payload)
		if err != nil || gotCorr != corr {
			t.Fatalf("response corr %d, err %v; want corr %d", gotCorr, err, corr)
		}
		return resp
	}

	// A request whose propagated deadline already passed must be refused
	// by the server without touching the store.
	resp := exchange(1, &request{Op: opCount, DeadlineUnixMicro: time.Now().Add(-time.Second).UnixMicro()})
	if resp.ErrCode != codeDeadline {
		t.Fatalf("ErrCode = %q, want %q", resp.ErrCode, codeDeadline)
	}

	// A live deadline is honored.
	resp = exchange(2, &request{Op: opCount, DeadlineUnixMicro: time.Now().Add(time.Second).UnixMicro()})
	if resp.ErrCode != "" {
		t.Fatalf("live-deadline request failed: %s %s", resp.ErrCode, resp.ErrMsg)
	}
}

// TestConsistentHashSpread: the ring spreads sequential ids over every
// shard, with the fullest shard within 15 % of the mean.
func TestConsistentHashSpread(t *testing.T) {
	m := NewShardMap([]string{"a:1", "b:1", "c:1", "d:1"})
	const keys = 4000
	counts := make([]int, 4)
	for i := 0; i < keys; i++ {
		counts[m.ShardOf(fmt.Sprintf("doc-%d", i))]++
	}
	for si, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d received no keys", si)
		}
	}
	mean := float64(keys) / float64(len(counts))
	if spread := float64(slices.Max(counts)) / mean; spread > 1.15 {
		t.Fatalf("max/mean keys per shard = %.3f (counts %v), want ≤ 1.15", spread, counts)
	}
}
