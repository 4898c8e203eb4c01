// Command covidkg-server runs the COVIDKG HTTP service: it restores a
// checkpoint or builds the system with core.System.Build, then serves
// the interactive browser plus the JSON API.
//
// Usage:
//
//	covidkg-server [-addr :8080] [-pubs 300] [-seed 42] [-data DIR]
//
// With -data, the newest complete checkpoint in DIR is restored when
// present; otherwise the server generates a corpus, builds the
// knowledge graph and commits one checkpoint, so restarts are warm and
// skip the build. On SIGINT/SIGTERM the server drains in-flight
// requests and checkpoints the store + knowledge graph before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"covidkg/internal/api"
	"covidkg/internal/breaker"
	"covidkg/internal/core"
	"covidkg/internal/durable"
	"covidkg/internal/metrics"
	"covidkg/internal/pprofserve"
	"covidkg/internal/retry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pubs := flag.Int("pubs", 300, "synthetic publications to generate when the boot restores no checkpoint and the store is empty")
	seed := flag.Int64("seed", 42, "corpus generator seed")
	dataDir := flag.String("data", "", "optional directory for store persistence")
	shards := flag.Int("shards", 4, "shard servers run in this process when -shard-addrs is empty")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated covidkg-shard addresses; non-empty serves publications from those remote processes via the shardnet coordinator instead of -shards shard servers in this process")
	hedgeDelay := flag.Duration("hedge-delay", 0, "with -shard-addrs, latency budget before a shard read is hedged with a second request (0 = adaptive 2×p95)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "with -shard-addrs, a shard connection's circuit-breaker open→half-open cooldown (0 = default 1s)")
	breakerFailures := flag.Int("breaker-failures", 0, "with -shard-addrs, consecutive shard failures before its breaker opens (0 = default 3)")
	searchTimeout := flag.Duration("search-timeout", 0, "per-request deadline for search routes (0 = default 5s, negative = none)")
	aggTimeout := flag.Duration("aggregate-timeout", 0, "per-request deadline for aggregate/export routes (0 = default 10s, negative = none)")
	inflightSearch := flag.Int("inflight-search", 0, "max concurrent search requests before shedding (0 = default 64, negative = unbounded)")
	inflightHeavy := flag.Int("inflight-heavy", 0, "max concurrent aggregate/ingest/export requests before shedding (0 = default 8, negative = unbounded)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	if _, err := pprofserve.Start(*pprofAddr, log.Printf); err != nil {
		log.Fatalf("pprof listener: %v", err)
	}

	// One registry for the whole process: the search engine, the graph
	// and the coordinator record into the registry /api/v1/metrics serves.
	reg := metrics.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Metrics = reg
	cfg.Shards = *shards
	cfg.Seed = *seed
	cfg.ShardNet.HedgeDelay = *hedgeDelay
	cfg.ShardNet.Breaker = breaker.Config{Threshold: *breakerFailures, Cooldown: *breakerCooldown}
	if *shardAddrs != "" {
		cfg.ShardAddrs = splitAddrs(*shardAddrs)
	}
	sys := core.NewSystem(cfg)
	if sys.Remote() {
		// Fail fast on a dead tier rather than booting into a server that
		// rejects every ingest; individual shards may still crash later —
		// breakers and /readyz take over from here.
		pingCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := sys.Coord.Ping(pingCtx)
		cancel()
		if err != nil {
			log.Fatalf("shard tier not reachable: %v", err)
		}
		log.Printf("publications served by %d remote shard processes", sys.Coord.NumShards())
	}

	// a boot that restored a checkpoint serves it and retrains the
	// models; every other boot builds
	restored := false
	if *dataDir != "" {
		report, err := sys.Restore(*dataDir)
		switch {
		case err == nil:
			restored = true
			log.Printf("store restored from %s: %s", *dataDir, report)
			if sys.IndexReadErr != nil {
				log.Printf("search index rebuilt from the publications: %v", sys.IndexReadErr)
			} else {
				log.Printf("search index read from checkpoint: %d catch-up writes", sys.Search.Index().WriteSeq())
			}
		case errors.Is(err, durable.ErrNoSnapshot):
			log.Printf("data dir %s holds no checkpoint", *dataDir)
		default:
			log.Fatalf("restore: %v", err)
		}
	}
	start := time.Now()
	if restored {
		stats, err := sys.TrainModels()
		if err != nil {
			log.Fatalf("train: %v", err)
		}
		log.Printf("trained in %s: vocab=%d termW2V=%d cellW2V=%d textW2V=%d svm=%s",
			time.Since(start).Round(time.Millisecond), stats.VocabSize, stats.TermVocab, stats.CellVocab, stats.TextVocab,
			stats.SVMMetrics)
		log.Printf("knowledge graph restored from checkpoint: %d nodes", sys.Graph.Size())
	} else {
		log.Printf("building knowledge graph (an empty store first gets %d publications, seed %d)", *pubs, *seed)
		bs, err := sys.Build(core.BuildSpec{Pubs: *pubs, Seed: *seed})
		if err != nil {
			log.Fatalf("build: %v", err)
		}
		log.Printf("kg built in %s: publications=%d tables=%d subtrees=%d fused=%d queued=%d nodes+%d",
			time.Since(start).Round(time.Millisecond), sys.Pubs.Count(), bs.Tables, bs.Subtrees, bs.Fused, bs.Queued, bs.NodesAdded)
		if *dataDir != "" {
			if err := checkpoint(sys, *dataDir); err != nil {
				log.Fatalf("checkpoint: %v", err)
			}
			log.Printf("store + graph checkpointed to %s", *dataDir)
		}
	}

	apiCfg := api.Config{
		SearchTimeout:     *searchTimeout,
		AggregateTimeout:  *aggTimeout,
		MaxInflightSearch: *inflightSearch,
		MaxInflightHeavy:  *inflightHeavy,
		Metrics:           reg,
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.NewServerWith(sys, apiCfg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("covidkg listening on %s", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	case sig := <-sigCh:
		log.Printf("received %s: draining connections", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if *dataDir != "" {
			if err := checkpoint(sys, *dataDir); err != nil {
				log.Printf("final checkpoint failed: %v", err)
				os.Exit(1)
			}
			log.Printf("final checkpoint committed to %s", *dataDir)
		}
	}
}

// checkpoint commits the full system state, retrying transient I/O
// errors with capped exponential backoff.
func checkpoint(sys *core.System, dir string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return retry.Do(ctx, retry.DefaultConfig(), func() error {
		return sys.Checkpoint(dir)
	})
}

// splitAddrs parses the -shard-addrs list, dropping empty segments so
// trailing commas don't become phantom shards.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
