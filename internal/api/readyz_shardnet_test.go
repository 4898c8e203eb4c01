package api

import (
	"net/http"
	"testing"
	"time"

	"covidkg/internal/breaker"
	"covidkg/internal/core"
	"covidkg/internal/jsondoc"
	"covidkg/internal/shardnet"
)

// remoteTestServer brings up two real shardnet servers and an API
// server whose system serves publications through a coordinator.
func remoteTestServer(t *testing.T) (*Server, *core.System, []*shardnet.Server) {
	t.Helper()
	backends := make([]*shardnet.Server, 2)
	addrs := make([]string, 2)
	for i := range backends {
		srv, err := shardnet.NewServer(shardnet.ServerConfig{Name: "shard" + string(rune('0'+i))})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		backends[i] = srv
		addrs[i] = addr.String()
	}
	cfg := core.DefaultConfig()
	cfg.ShardAddrs = addrs
	cfg.ShardNet.Breaker = breaker.Config{Threshold: 2, Cooldown: 50 * time.Millisecond}
	sys := core.NewSystem(cfg)
	t.Cleanup(sys.Coord.Close)
	return NewServer(sys), sys, backends
}

// TestReadyzShardnetMode pins the networked /readyz contract: per-shard
// connection states while healthy, and a 503
// naming the dark shard once a shard process disappears.
func TestReadyzShardnetMode(t *testing.T) {
	s, sys, backends := remoteTestServer(t)
	if rep := sys.IngestDocs([]jsondoc.Doc{
		{"_id": "p1", "title": "remote readiness probe", "abstract": "shardnet"},
	}); rep.Err() != nil {
		t.Fatal(rep.Err())
	}

	rec, body := get(t, s, "/readyz")
	if rec.Code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("healthy readyz = %d %v", rec.Code, body)
	}
	if body["mode"] != "shardnet" {
		t.Fatalf("mode = %v, want shardnet", body["mode"])
	}
	shards := body["shards"].([]any)
	if len(shards) != 2 {
		t.Fatalf("shards = %d entries, want 2", len(shards))
	}
	for i, sv := range shards {
		if st := sv.(map[string]any)["state"]; st != "connected" {
			t.Fatalf("shard %d state = %v, want connected", i, st)
		}
	}

	// One shard process dies: readiness must flip to 503 and the body
	// must name which shard is no longer connected.
	backends[1].Close()
	rec, body = get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("degraded readyz = %d %v", rec.Code, body)
	}
	shards = body["shards"].([]any)
	dark := shards[1].(map[string]any)
	if st := dark["state"]; st == "connected" {
		t.Fatalf("dead shard still reports connected: %v", dark)
	}
	if live := shards[0].(map[string]any)["state"]; live != "connected" {
		t.Fatalf("surviving shard state = %v, want connected", live)
	}

	// Stats in remote mode reports per-shard doc counts from the tier.
	rec, body = get(t, s, "/api/v1/stats")
	if rec.Code != http.StatusOK || body["mode"] != "shardnet" {
		t.Fatalf("remote stats = %d %v", rec.Code, body)
	}
}
