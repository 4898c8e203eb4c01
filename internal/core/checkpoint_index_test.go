package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/durable"
	"covidkg/internal/jsondoc"
	"covidkg/internal/search"
	"covidkg/internal/shardnet"
)

// restoreInto restores dir into a new System configured by cfg (whose
// coordinator, in networked mode, the test closes) and requires it to
// have read the checkpointed index.
func restoreInto(t *testing.T, cfg Config, dir string) *System {
	t.Helper()
	s := NewSystem(cfg)
	if s.Coord != nil {
		t.Cleanup(s.Coord.Close)
	}
	if _, err := s.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if s.IndexReadErr != nil {
		t.Fatalf("the checkpointed index was not read: %v", s.IndexReadErr)
	}
	return s
}

// TestCheckpointNetworkedCatchUp: the shard processes outlive a
// checkpoint, so their WALs may hold documents acked after it and lack
// documents deleted after it. A restore over the same shards indexes
// exactly those additions and removals, and then answers what an engine
// indexing the shards from scratch answers.
func TestCheckpointNetworkedCatchUp(t *testing.T) {
	s := remoteSystem(t, DefaultConfig())
	pubs := cord19.NewGenerator(31).Corpus(120)
	if err := s.IngestPublications(pubs[:80]); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	added, removed := pubs[80:], pubs[:15]
	if err := s.IngestPublications(added); err != nil {
		t.Fatal(err)
	}
	for _, p := range removed {
		if err := s.Search.RemoveDocument(p.ID); err != nil {
			t.Fatal(err)
		}
	}

	s2 := restoreInto(t, s.cfg, dir) // over the same shards
	if got, want := s2.Search.Index().WriteSeq(), uint64(len(added)+len(removed)); got != want {
		t.Fatalf("catch-up made %d index writes, want %d added + %d removed", got, len(added), len(removed))
	}
	if got, want := pages(t, s2.Search), pages(t, search.NewEngine(s2.Pubs)); got != want {
		t.Fatalf("restored pages differ from a fresh engine's:\n%s\nvs\n%s", got, want)
	}
}

// TestCheckpointDarkShardRemovesNothing: a restore whose scan cannot
// read every shard must not take the documents it did not see for
// deleted ones.
func TestCheckpointDarkShardRemovesNothing(t *testing.T) {
	cfg := DefaultConfig()
	var srvs []*shardnet.Server
	cfg.ShardAddrs, srvs = remoteShards(t)
	s := NewSystem(cfg)
	t.Cleanup(s.Coord.Close)
	if err := s.IngestPublications(cord19.NewGenerator(32).Corpus(40)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	want := s.Search.Index().DocCount()
	srvs[2].Close()

	s2 := restoreInto(t, cfg, dir)
	if got := s2.Search.Index().DocCount(); got != want {
		t.Fatalf("restored index holds %d documents with a shard dark, want the checkpoint's %d", got, want)
	}
	if seq := s2.Search.Index().WriteSeq(); seq != 0 {
		t.Fatalf("restore wrote %d times to the index with a shard dark", seq)
	}
}

// TestCheckpointRefusesPublicationsIntoShardTier: a checkpoint written
// by an in-process system holds its publications, which a networked
// system has nowhere to serve from; the restore fails naming the
// directory before it loads anything.
func TestCheckpointRefusesPublicationsIntoShardTier(t *testing.T) {
	local := NewSystem(DefaultConfig())
	if err := local.IngestPublications(cord19.NewGenerator(33).Corpus(10)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := local.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}

	s := remoteSystem(t, DefaultConfig())
	graph, seed := s.Graph, s.Graph.Size()
	_, err := s.Restore(dir)
	if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), pubsFile) {
		t.Fatalf("Restore of an in-process checkpoint into the shard tier = %v, want an error naming %s and %s", err, dir, pubsFile)
	}
	if n := s.Pubs.Count(); n != 0 {
		t.Fatalf("the shard tier serves %d publications after the refused restore, want 0", n)
	}
	if s.Graph != graph || s.Graph.Size() != seed {
		t.Fatalf("the refused restore replaced the seed graph (%d nodes, was %d)", s.Graph.Size(), seed)
	}
}

// rewriteCheckpoint copies the newest generation under src into a new
// generation under dst, passing every file through edit; a nil result
// leaves the file out.
func rewriteCheckpoint(t *testing.T, src, dst string, edit func(name string, data []byte) []byte) {
	t.Helper()
	sn, _, err := durable.NewSnapshotter(src).Load()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := durable.NewSnapshotter(dst).Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sn.Names() {
		data, err := sn.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if data = edit(name, data); data != nil {
			if err := tx.WriteFile(name, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointIndexFallback: a checkpoint without the index files (as
// written before the index was part of it), or whose segment is in
// another format, restores by re-indexing the publications, to the same
// state, and says why.
func TestCheckpointIndexFallback(t *testing.T) {
	src := t.TempDir()
	s := untrainedSystem(t, 20, 7, nil)
	want := state(t, s)
	if err := s.Checkpoint(src); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		edit func(name string, data []byte) []byte
		why  string
	}{
		"no index files": {func(name string, data []byte) []byte {
			if name == "index.json" || strings.HasPrefix(name, "seg-") {
				return nil
			}
			return data
		}, "index.json"},
		"other segment magic": {func(name string, data []byte) []byte {
			if strings.HasPrefix(name, "seg-") {
				data = bytes.Replace(data, []byte("CKGSEG1"), []byte("CKGSEG0"), 1)
			}
			return data
		}, "magic"},
	} {
		dir := t.TempDir()
		rewriteCheckpoint(t, src, dir, tc.edit)
		s2 := NewSystem(DefaultConfig())
		if _, err := s2.Restore(dir); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s2.IndexReadErr; err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Fatalf("%s: IndexReadErr = %v, want one naming %q", name, err, tc.why)
		}
		if got := state(t, s2); got != want {
			t.Fatalf("%s: restored state differs from the checkpointed system", name)
		}
	}
}

// TestCheckpointUnderConcurrentWrites checkpoints while documents are
// added and removed, so segments are tombstoned while a checkpoint
// encodes them and the store and the index are saved at different
// instants. Every committed generation must restore to the pages an
// engine indexing that generation's store from scratch serves.
func TestCheckpointUnderConcurrentWrites(t *testing.T) {
	s := untrainedSystem(t, 60, 7, nil)
	old := s.Pubs.IDs()
	gen := cord19.NewGenerator(9)
	var writes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // adds documents until stopped
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			doc := gen.Publication().Doc()
			doc["_id"] = fmt.Sprintf("live-%04d", i)
			if a := s.Search.AddDocuments([]jsondoc.Doc{doc})[0]; a.Err != nil {
				t.Error(a.Err)
				return
			}
			writes.Add(1)
		}
	}()
	go func() { // removes the first 40 checkpointed documents, one per add
		defer wg.Done()
		for _, id := range old[:40] {
			for writes.Load() < 1 {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			if err := s.Search.RemoveDocument(id); err != nil {
				t.Error(err)
				return
			}
			writes.Add(-1)
		}
	}()
	var dirs []string
	for i := 0; i < 4; i++ {
		for seen := s.Search.Index().WriteSeq(); s.Search.Index().WriteSeq() < seen+10 && !t.Failed(); {
			runtime.Gosched()
		}
		dir := t.TempDir()
		if err := s.Checkpoint(dir); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	close(stop)
	wg.Wait()

	for i, dir := range dirs {
		s2 := restoreInto(t, DefaultConfig(), dir)
		if got, want := pages(t, s2.Search), pages(t, search.NewEngine(s2.Pubs)); got != want {
			t.Fatalf("checkpoint %d: restored pages differ from a fresh engine's:\n%s\nvs\n%s", i, got, want)
		}
	}
}
