package shardnet

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"covidkg/internal/jsondoc"
)

// TestLocalShardServers: the in-process tier is real shard servers. A
// GetMany whose ids span all four shards moves every server's request
// counter, so in-process reads cross the codec; and Close ends every
// goroutine the tier started.
func TestLocalShardServers(t *testing.T) {
	before := runtime.NumGoroutine()
	co := Local(Config{}, 4)
	if co.NumShards() != 4 || len(co.local) != 4 {
		t.Fatalf("Local(4) runs %d shards over %d servers", co.NumShards(), len(co.local))
	}

	var ids []string
	onShard := map[int]bool{}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("local-%02d", i)
		if _, err := co.Insert(jsondoc.Doc{"_id": id, "i": float64(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		onShard[co.ShardOfID(id)] = true
	}
	if len(onShard) != 4 {
		t.Fatalf("the ids span %d of 4 shards", len(onShard))
	}
	requests := func(si int) int64 {
		return co.local[si].met.Counter("shardnet.server.requests").Value()
	}
	was := make([]int64, 4)
	for si := range was {
		was[si] = requests(si)
	}
	docs, missing, err := co.GetMany(context.Background(), ids)
	if err != nil || len(missing) > 0 {
		t.Fatalf("GetMany: missing %v, err %v", missing, err)
	}
	for i, d := range docs {
		if d.GetString("_id") != ids[i] {
			t.Fatalf("docs[%d] = %v, want %s", i, d, ids[i])
		}
	}
	for si := range was {
		if requests(si) == was[si] {
			t.Fatalf("shard %d's server saw no request for a GetMany spanning every shard", si)
		}
	}

	co.Close()
	waitGoroutines(t, before)
}

// waitGoroutines polls until at most want goroutines run, failing after
// five seconds.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want at most %d as before Local", runtime.NumGoroutine(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
