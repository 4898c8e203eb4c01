package docstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"covidkg/internal/breaker"
	"covidkg/internal/failpoint"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// chaosStore builds a store with a failpoint registry and fast breakers
// for replica-failure tests.
func chaosStore(t *testing.T, opts ...Option) (*Store, *failpoint.Registry, *metrics.Registry) {
	t.Helper()
	fp := failpoint.New(1)
	fp.SetSleeper(func(time.Duration) {}) // no real sleeping unless a test opts in
	reg := metrics.NewRegistry()
	base := []Option{
		WithShards(4),
		WithReplicas(3),
		WithFailpoints(fp),
		WithMetrics(reg),
		WithBreaker(breaker.Config{Threshold: 2, Cooldown: time.Millisecond}),
		WithHedgeDelay(time.Millisecond),
	}
	return Open(append(base, opts...)...), fp, reg
}

func seedDocs(t *testing.T, c *Collection, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id, err := c.Insert(jsondoc.Doc{"n": i, "body": fmt.Sprintf("doc number %d", i)})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	return ids
}

// shardWithDocs returns a shard index that holds at least one of ids,
// plus one id living there.
func shardWithDocs(c *Collection, ids []string) (int, string) {
	for _, id := range ids {
		return c.ShardOfID(id), id
	}
	return 0, ""
}

func TestReplicatedWritesIdentical(t *testing.T) {
	s, _, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 50)
	if err := c.Delete(ids[7]); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(ids[3], func(d jsondoc.Doc) error { return d.Set("x", 1) }); err != nil {
		t.Fatal(err)
	}
	if !s.ReplicasIdentical() {
		t.Fatal("replicas diverged under healthy quorum writes")
	}
	if c.Count() != 49 {
		t.Fatalf("Count = %d, want 49", c.Count())
	}
}

func TestWriteSurvivesOneReplicaDown(t *testing.T) {
	s, fp, reg := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 40)
	si, _ := shardWithDocs(c, ids)

	fp.Set(ReplicaTarget(si, 1), failpoint.Rule{Down: true})
	var newIDs []string
	for i := 0; i < 30; i++ {
		id, err := c.Insert(jsondoc.Doc{"round": 2, "n": i})
		if err != nil {
			if errors.Is(err, ErrNoQuorum) {
				t.Fatalf("quorum lost with only one replica down: %v", err)
			}
			t.Fatal(err)
		}
		newIDs = append(newIDs, id)
	}
	// every acknowledged write must be readable despite the dark replica
	for _, id := range append(ids, newIDs...) {
		if _, err := c.Get(id); err != nil {
			t.Fatalf("acked write lost while replica down: %v", err)
		}
	}

	// recover + resync → byte-identical replicas again
	fp.Clear(ReplicaTarget(si, 1))
	rep := s.Resync()
	if !rep.Identical {
		t.Fatalf("resync left replicas divergent: %+v", rep)
	}
	if !s.ReplicasIdentical() {
		t.Fatal("checksums differ after resync")
	}
	if got := reg.Counter("replica_resyncs").Value(); got < 1 {
		t.Fatalf("replica_resyncs = %d, want ≥ 1", got)
	}
}

func TestDarkShardFailsReadsAndWrites(t *testing.T) {
	s, fp, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 60)
	si, darkID := shardWithDocs(c, ids)

	fp.Set(fmt.Sprintf("shard%d/*", si), failpoint.Rule{Down: true})

	if _, err := c.Get(darkID); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Get on dark shard = %v, want ErrShardUnavailable", err)
	} else if got, ok := ShardOfError(err); !ok || got != si {
		t.Fatalf("ShardOfError = %d,%v, want %d,true", got, ok, si)
	}

	// writes to the dark shard fail with no quorum and touch nothing
	wrote := 0
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("probe-%d", i)
		if c.ShardOfID(id) != si {
			continue
		}
		_, err := c.Insert(jsondoc.Doc{"_id": id})
		if !errors.Is(err, ErrNoQuorum) {
			t.Fatalf("Insert into dark shard = %v, want ErrNoQuorum", err)
		}
		wrote++
	}
	if wrote == 0 {
		t.Fatal("no probe id hashed to the dark shard")
	}

	// other shards keep serving
	served := 0
	for _, id := range ids {
		if c.ShardOfID(id) == si {
			continue
		}
		if _, err := c.Get(id); err != nil {
			t.Fatalf("healthy shard read failed: %v", err)
		}
		served++
	}
	if served == 0 {
		t.Fatal("all docs landed on one shard")
	}

	// a full scan must fail loudly, not silently drop the partition
	err := c.ScanContext(context.Background(), func(jsondoc.Doc) bool { return true })
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("ScanContext over dark shard = %v, want ErrShardUnavailable", err)
	}

	// after recovery a failed write must NOT have resurrected
	fp.ClearAll()
	s.Resync()
	time.Sleep(5 * time.Millisecond) // let the breaker cooldown elapse
	for i := 0; i < 2*s.NumReplicas(); i++ {
		c.Get(darkID) // half-open probes re-close the replica breakers
	}
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("probe-%d", i)
		if c.ShardOfID(id) != si {
			continue
		}
		if _, err := c.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("failed write resurrected after recovery: Get(%s) = %v", id, err)
		}
	}
}

func TestStaleReplicaServesNoReads(t *testing.T) {
	s, fp, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 40)
	si, _ := shardWithDocs(c, ids)

	// replica 2 goes dark and misses a write
	fp.Set(ReplicaTarget(si, 2), failpoint.Rule{Down: true})
	missedID := ""
	for i := 0; ; i++ {
		id := fmt.Sprintf("late-%d", i)
		if c.ShardOfID(id) != si {
			continue
		}
		if _, err := c.Insert(jsondoc.Doc{"_id": id, "v": "critical"}); err != nil {
			t.Fatal(err)
		}
		missedID = id
		break
	}

	// replica 2 comes back but has NOT been resynced: it must be
	// excluded from reads — the missed write stays visible always
	fp.Clear(ReplicaTarget(si, 2))
	for i := 0; i < 3*s.NumReplicas()*2; i++ {
		if _, err := c.Get(missedID); err != nil {
			t.Fatalf("stale replica served a read missing an acked write: %v", err)
		}
	}
	rep := s.Resync()
	if rep.Resynced != 1 || !rep.Identical {
		t.Fatalf("resync report = %+v, want 1 resynced, identical", rep)
	}
}

func TestBreakerTripsAndProbeRestores(t *testing.T) {
	clk := time.Now()
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	advance := func(d time.Duration) { mu.Lock(); clk = clk.Add(d); mu.Unlock() }

	fp := failpoint.New(1)
	fp.SetSleeper(func(time.Duration) {})
	s := Open(WithShards(2), WithReplicas(2), WithFailpoints(fp),
		WithMetrics(metrics.NewRegistry()), WithHedgeDelay(time.Millisecond),
		WithBreaker(breaker.Config{Threshold: 2, Cooldown: time.Second, Now: now}))
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 30)
	si, id := shardWithDocs(c, ids)

	fp.Set(ReplicaTarget(si, 0), failpoint.Rule{Down: true})
	fp.Set(ReplicaTarget(si, 1), failpoint.Rule{Down: true})
	for i := 0; i < 4; i++ {
		c.Get(id) // feed failures until both breakers trip
	}
	if st := s.Breaker(si, 0).State(); st != breaker.Open {
		t.Fatalf("replica 0 breaker = %v, want open", st)
	}
	// while open, reads fail fast without consulting the failpoint
	before := fp.Checks(ReplicaTarget(si, 0))
	if _, err := c.Get(id); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Get = %v, want ErrShardUnavailable", err)
	}
	if fp.Checks(ReplicaTarget(si, 0)) != before {
		t.Fatal("open breaker still hit the replica")
	}

	// recovery: failpoint clears, cooldown elapses, the half-open probe
	// succeeds and the shard serves again
	fp.ClearAll()
	advance(time.Second)
	if _, err := c.Get(id); err != nil {
		t.Fatalf("probe read after recovery failed: %v", err)
	}
	if st := s.Breaker(si, 0).State(); st == breaker.Open {
		t.Fatal("breaker still open after successful probe")
	}
}

func TestHedgedSnapshotBeatsSlowReplica(t *testing.T) {
	fp := failpoint.New(1) // real sleeper: latency must actually delay
	reg := metrics.NewRegistry()
	s := Open(WithShards(1), WithReplicas(2), WithFailpoints(fp),
		WithMetrics(reg), WithHedgeDelay(2*time.Millisecond))
	c := s.Collection("pubs")
	seedDocs(t, c, 20)

	// replica 0 is slow, replica 1 fast: whenever rotation starts on 0,
	// the hedge must fire and replica 1 must answer within the budget
	fp.Set(ReplicaTarget(0, 0), failpoint.Rule{Latency: 300 * time.Millisecond})
	for i := 0; i < 6; i++ {
		start := time.Now()
		docs, err := c.SnapshotShardContext(context.Background(), 0)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if len(docs) != 20 {
			t.Fatalf("snapshot %d returned %d docs, want 20", i, len(docs))
		}
		if d := time.Since(start); d > 150*time.Millisecond {
			t.Fatalf("snapshot %d took %v despite hedging", i, d)
		}
	}
	if got := reg.Counter("hedged_requests").Value(); got < 1 {
		t.Fatalf("hedged_requests = %d, want ≥ 1", got)
	}
}

// TestConcurrentUpdateScan pins the shard-locking invariant the replica
// work reshaped: concurrent Update, Insert, Get, and ScanContext must
// be race-free and every scan must observe internally consistent
// documents (run under -race).
func TestConcurrentUpdateScan(t *testing.T) {
	s := Open(WithShards(4), WithReplicas(3), WithMetrics(metrics.NewRegistry()))
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 200)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(i*7+w*13)%len(ids)]
				err := c.Update(id, func(d jsondoc.Doc) error {
					return d.Set("touched", w*1000+i)
				})
				if err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Insert(jsondoc.Doc{"extra": i}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 20; i++ {
		n := 0
		err := c.ScanContext(ctx, func(d jsondoc.Doc) bool {
			if d.GetString(IDField) == "" {
				t.Error("scanned doc without _id")
				return false
			}
			n++
			return true
		})
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if n < len(ids) {
			t.Fatalf("scan %d saw %d docs, want ≥ %d", i, n, len(ids))
		}
		for k := 0; k < 50; k++ {
			if _, err := c.Get(ids[k%len(ids)]); err != nil {
				t.Fatalf("get during scan churn: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if !s.ReplicasIdentical() {
		t.Fatal("replicas diverged under concurrent load")
	}
}

func TestSaveFailsOnDarkShard(t *testing.T) {
	s, fp, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 30)
	si, _ := shardWithDocs(c, ids)
	fp.Set(fmt.Sprintf("shard%d/*", si), failpoint.Rule{Down: true})
	if err := s.Save(t.TempDir()); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Save with dark shard = %v, want ErrShardUnavailable", err)
	}
}

func TestHealthReflectsOutage(t *testing.T) {
	s, fp, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 40)
	si, id := shardWithDocs(c, ids)

	for _, sh := range s.Health() {
		if !sh.Ready {
			t.Fatalf("healthy store reports shard %d not ready", sh.Shard)
		}
	}

	fp.Set(fmt.Sprintf("shard%d/*", si), failpoint.Rule{Down: true})
	for i := 0; i < 8; i++ {
		c.Get(id) // trip the breakers
	}
	h := s.Health()
	if h[si].Ready {
		t.Fatalf("dark shard %d still reports ready: %+v", si, h[si])
	}
	for _, rh := range h[si].Replicas {
		if rh.State != "open" {
			t.Fatalf("replica %d state = %s, want open", rh.Replica, rh.State)
		}
	}
}

func TestShardIDsContextMatchesSnapshot(t *testing.T) {
	s, _, _ := chaosStore(t)
	c := s.Collection("pubs")
	seedDocs(t, c, 60)
	for si := 0; si < c.NumShards(); si++ {
		ids, err := c.ShardIDsContext(context.Background(), si)
		if err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
		docs, err := c.SnapshotShardContext(context.Background(), si)
		if err != nil {
			t.Fatalf("shard %d snapshot: %v", si, err)
		}
		if len(ids) != len(docs) {
			t.Fatalf("shard %d: %d ids vs %d docs", si, len(ids), len(docs))
		}
		for i, d := range docs {
			if got := d.GetString("_id"); got != ids[i] {
				t.Fatalf("shard %d pos %d: id %q vs doc %q (order or content mismatch)", si, i, ids[i], got)
			}
		}
	}
}

func TestShardIDsContextDarkShard(t *testing.T) {
	s, fp, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 40)
	si, _ := shardWithDocs(c, ids)
	fp.Set(fmt.Sprintf("shard%d/*", si), failpoint.Rule{Down: true})
	if _, err := c.ShardIDsContext(context.Background(), si); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("dark shard id scan err = %v, want ErrShardUnavailable", err)
	}
	if got, ok := ShardOfError(func() error {
		_, err := c.ShardIDsContext(context.Background(), si)
		return err
	}()); !ok || got != si {
		t.Fatalf("ShardOfError = %d,%v want %d,true", got, ok, si)
	}
}

func TestAllShardsServing(t *testing.T) {
	s, fp, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 40)
	if !c.AllShardsServing() {
		t.Fatal("healthy store should report all shards serving")
	}
	// darken one shard and trip its breakers via failed reads
	si, id := shardWithDocs(c, ids)
	fp.Set(fmt.Sprintf("shard%d/*", si), failpoint.Rule{Down: true})
	for i := 0; i < 10; i++ {
		c.Get(id) //nolint:errcheck // driving the breakers open
	}
	if c.AllShardsServing() {
		t.Fatal("shard with every breaker open should not count as serving")
	}
	// recovery: failpoint cleared, half-open probes close the breakers
	fp.ClearAll()
	time.Sleep(2 * time.Millisecond) // past the 1ms cooldown
	if _, err := c.Get(id); err != nil {
		t.Fatalf("post-recovery read: %v", err)
	}
	if !c.AllShardsServing() {
		t.Fatal("recovered shard should count as serving again")
	}
}
