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
	"covidkg/internal/faultfs"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// chaosStore builds a store with a failpoint registry and fast breakers
// for shard-failure tests.
func chaosStore(t *testing.T, opts ...Option) (*Store, *failpoint.Registry, *metrics.Registry) {
	t.Helper()
	fp := failpoint.New(1)
	fp.SetSleeper(func(time.Duration) {}) // no real sleeping unless a test opts in
	reg := metrics.NewRegistry()
	base := []Option{
		WithShards(4),
		WithFailpoints(fp),
		WithMetrics(reg),
		WithBreaker(breaker.Config{Threshold: 2, Cooldown: time.Millisecond}),
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

func TestDarkShardFailsReadsAndWrites(t *testing.T) {
	s, fp, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 60)
	si, darkID := shardWithDocs(c, ids)

	fp.Set(ShardTarget(si), failpoint.Rule{Down: true})

	if _, err := c.Get(darkID); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Get on dark shard = %v, want ErrShardUnavailable", err)
	} else if got, ok := ShardOfError(err); !ok || got != si {
		t.Fatalf("ShardOfError = %d,%v, want %d,true", got, ok, si)
	}

	// writes to the dark shard are rejected and touch nothing
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
	time.Sleep(5 * time.Millisecond) // let the breaker cooldown elapse
	c.Get(darkID)                    // the half-open probe re-closes the breaker
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

func TestBreakerTripsAndProbeRestores(t *testing.T) {
	clk := time.Now()
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clk }
	advance := func(d time.Duration) { mu.Lock(); clk = clk.Add(d); mu.Unlock() }

	fp := failpoint.New(1)
	fp.SetSleeper(func(time.Duration) {})
	s := Open(WithShards(2), WithFailpoints(fp), WithMetrics(metrics.NewRegistry()),
		WithBreaker(breaker.Config{Threshold: 2, Cooldown: time.Second, Now: now}))
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 30)
	si, id := shardWithDocs(c, ids)

	fp.Set(ShardTarget(si), failpoint.Rule{Down: true})
	for i := 0; i < 2; i++ {
		c.Get(id) // feed failures until the breaker trips
	}
	if st := s.Health()[si].State; st != "open" {
		t.Fatalf("shard %d breaker = %v, want open", si, st)
	}
	// while open, reads fail fast without consulting the failpoint
	before := fp.Checks(ShardTarget(si))
	if _, err := c.Get(id); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("Get = %v, want ErrShardUnavailable", err)
	}
	if fp.Checks(ShardTarget(si)) != before {
		t.Fatal("open breaker still hit the shard")
	}

	// recovery: failpoint clears, cooldown elapses, the half-open probe
	// succeeds and the shard serves again
	fp.ClearAll()
	advance(time.Second)
	if _, err := c.Get(id); err != nil {
		t.Fatalf("probe read after recovery failed: %v", err)
	}
	if st := s.Health()[si].State; st != "closed" {
		t.Fatalf("breaker %s after successful probe, want closed", st)
	}
}

// TestConcurrentUpdateScan pins the shard-locking invariant: concurrent
// Update, Insert, Get, and ScanContext must be race-free and every scan
// must observe internally consistent documents (run under -race).
func TestConcurrentUpdateScan(t *testing.T) {
	s := Open(WithShards(4), WithMetrics(metrics.NewRegistry()))
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
}

func TestSaveFailsOnDarkShard(t *testing.T) {
	s, fp, _ := chaosStore(t)
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 30)
	si, _ := shardWithDocs(c, ids)
	fp.Set(ShardTarget(si), failpoint.Rule{Down: true})
	if err := save(s, t.TempDir(), faultfs.OS{}); !errors.Is(err, ErrShardUnavailable) {
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

	fp.Set(ShardTarget(si), failpoint.Rule{Down: true})
	for i := 0; i < 8; i++ {
		c.Get(id) // trip the breakers
	}
	h := s.Health()
	if h[si].Ready || h[si].State != "open" {
		t.Fatalf("dark shard %d = %+v, want not ready, open", si, h[si])
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
	fp.Set(ShardTarget(si), failpoint.Rule{Down: true})
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
	fp.Set(ShardTarget(si), failpoint.Rule{Down: true})
	for i := 0; i < 10; i++ {
		c.Get(id) //nolint:errcheck // driving the breakers open
	}
	if c.AllShardsServing() {
		t.Fatal("shard with its breaker open should not count as serving")
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
