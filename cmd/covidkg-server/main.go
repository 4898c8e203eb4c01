// Command covidkg-server runs the COVIDKG HTTP service: it generates (or
// loads) a corpus, trains the models, builds the knowledge graph, and
// serves the interactive browser plus the JSON API.
//
// Usage:
//
//	covidkg-server [-addr :8080] [-pubs 300] [-seed 42] [-data DIR]
//
// With -data, the newest complete checkpoint in DIR is restored when
// present and a fresh one is committed after ingestion otherwise, so
// restarts are warm. On SIGINT/SIGTERM the server drains in-flight
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
	"covidkg/internal/cord19"
	"covidkg/internal/core"
	"covidkg/internal/metrics"
	"covidkg/internal/pprofserve"
	"covidkg/internal/retry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pubs := flag.Int("pubs", 300, "synthetic publications to generate when no data dir is loaded")
	seed := flag.Int64("seed", 42, "corpus generator seed")
	dataDir := flag.String("data", "", "optional directory for store persistence")
	shards := flag.Int("shards", 4, "document store shards")
	shardAddrs := flag.String("shard-addrs", "", "comma-separated covidkg-shard addresses; non-empty serves publications from those remote processes via the shardnet coordinator instead of in-process shards")
	hedgeDelay := flag.Duration("hedge-delay", 0, "with -shard-addrs, latency budget before a shard read is hedged with a second request (0 = adaptive 2×p95)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "circuit-breaker open→half-open cooldown (0 = default 1s)")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive shard failures before the breaker opens (0 = default 3)")
	searchTimeout := flag.Duration("search-timeout", 0, "per-request deadline for search routes (0 = default 5s, negative = none)")
	aggTimeout := flag.Duration("aggregate-timeout", 0, "per-request deadline for aggregate/export routes (0 = default 10s, negative = none)")
	inflightSearch := flag.Int("inflight-search", 0, "max concurrent search requests before shedding (0 = default 64, negative = unbounded)")
	inflightHeavy := flag.Int("inflight-heavy", 0, "max concurrent aggregate/ingest/export requests before shedding (0 = default 8, negative = unbounded)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	if _, err := pprofserve.Start(*pprofAddr, log.Printf); err != nil {
		log.Fatalf("pprof listener: %v", err)
	}

	// One registry for the whole process: the search engine, the stores
	// and the coordinator record into the registry /api/v1/metrics serves.
	reg := metrics.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Metrics = reg
	cfg.Shards = *shards
	cfg.Seed = *seed
	cfg.ShardNet.HedgeDelay = *hedgeDelay
	cfg.Breaker = breaker.Config{Threshold: *breakerFailures, Cooldown: *breakerCooldown}
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
		log.Printf("publications served by %d remote shard processes (map v%d)",
			sys.Coord.NumShards(), sys.Coord.MapVersion())
	}

	loaded := false
	if *dataDir != "" {
		report, err := sys.Restore(*dataDir)
		switch {
		case err == nil && sys.Pubs.Count() > 0:
			// Restore re-indexed the search engine and restored the
			// persisted graph, so the system is immediately servable
			log.Printf("store restored from %s: %s", *dataDir, report)
			loaded = true
		case err == nil:
			log.Printf("data dir %s holds no publications; generating", *dataDir)
		case errors.Is(err, os.ErrNotExist):
			log.Printf("data dir %s not found; generating", *dataDir)
		default:
			log.Fatalf("restore: %v", err)
		}
	}
	if !loaded {
		log.Printf("generating %d publications (seed %d)", *pubs, *seed)
		start := time.Now()
		g := cord19.NewGenerator(*seed)
		corpus := g.Corpus(*pubs)
		corpus = append(corpus, sideEffectPapers(g)...)
		if err := sys.IngestPublications(corpus); err != nil {
			log.Fatalf("ingest: %v", err)
		}
		log.Printf("generated and ingested %d publications in %s", len(corpus), time.Since(start).Round(time.Millisecond))
		if *dataDir != "" {
			// plain store save: checkpointing here would persist the
			// still-seed-only graph and make the restore branch below
			// skip building the real one
			if err := saveStore(sys, *dataDir); err != nil {
				log.Fatalf("save: %v", err)
			}
			log.Printf("store saved to %s", *dataDir)
		}
	}

	log.Printf("training models")
	start := time.Now()
	stats, err := sys.TrainModels()
	if err != nil {
		log.Fatalf("train: %v", err)
	}
	log.Printf("trained in %s: vocab=%d termW2V=%d cellW2V=%d textW2V=%d svm=%s",
		time.Since(start).Round(time.Millisecond), stats.VocabSize, stats.TermVocab, stats.CellVocab, stats.TextVocab,
		stats.SVMMetrics)

	if restored, err := sys.RestoreGraph(); err != nil {
		log.Fatalf("restore graph: %v", err)
	} else if restored {
		log.Printf("knowledge graph restored from store: %d nodes", sys.Graph.Size())
	} else {
		log.Printf("building knowledge graph")
		start = time.Now()
		bs := sys.BuildKG()
		log.Printf("kg built in %s: tables=%d subtrees=%d fused=%d queued=%d nodes+%d",
			time.Since(start).Round(time.Millisecond), bs.Tables, bs.Subtrees, bs.Fused, bs.Queued, bs.NodesAdded)
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

// saveStore persists only the collections (no graph), with the same
// retry discipline.
func saveStore(sys *core.System, dir string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return retry.Do(ctx, retry.DefaultConfig(), func() error {
		return sys.Store.Save(dir)
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

func sideEffectPapers(g *cord19.Generator) []*cord19.Publication {
	vaccines := []string{"Pfizer-BioNTech", "Moderna", "AstraZeneca"}
	out := make([]*cord19.Publication, 3)
	for i := range out {
		out[i] = g.SideEffectPaper(vaccines)
	}
	return out
}
