package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"covidkg/internal/shardnet"
)

const (
	numClients = 2 // closed loop; the host has 2 cores and also runs the 5 server-side processes
	// numTrials is how many independent trials an untraced run makes;
	// every metric, setup_s included, is the median over them.
	numTrials = 3
	// warmup is untimed traffic before the window on the workloads whose
	// warm-up is not a fixed piece of work.
	warmup = time.Second
)

// runEnv is what one invocation of the benchmark shares across runs.
type runEnv struct {
	repoRoot string
	binDir   string
	workDir  string // WALs; removed on exit
}

// result is one run of one workload.
type result struct {
	workload   string
	seed       int64
	traced     bool
	obs        observed
	attempted  int64
	failed     int64
	violations []string
	setups     []float64
	window     time.Duration
	elapsed    time.Duration
}

func (r *result) correct() bool { return r.failed == 0 }

// shared wraps a generator that several clients draw from.
type shared struct {
	mu  sync.Mutex
	gen *queryGen
}

func (s *shared) next() searchQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen.next()
}

func searchStream(c *client, next func() searchQuery) stream {
	return func() []sample { return []sample{c.exec(next().op())} }
}

// learnKG reads the graph the server built, for kg_browse to bind its
// patterns and node reads to.
func learnKG(c *client) ([]kgNode, error) {
	var export struct {
		Nodes []kgNode `json:"nodes"`
	}
	err := c.getJSON("/api/v1/kg", &export)
	return export.Nodes, err
}

// touchHotSet requests every hot query once, split over the clients. On
// search_warm these first (cold) bodies are what every later response
// must equal byte for byte.
func touchHotSet(t *topology, c *client, set []searchQuery) error {
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		part := set[i*len(set)/numClients : (i+1)*len(set)/numClients]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range part {
				c.exec(q.op())
			}
		}()
	}
	wg.Wait()
	return t.checkAlive()
}

// trial is one independent measurement: its own topology, warm-up and
// window.
type trial struct {
	setup  float64 // seconds
	window time.Duration
	obs    observed
	lost   int // ingest_mixed: acked documents the durability probe missed
}

// runTrial sets the topology up, warms it, measures one window and tears
// it down again.
func runTrial(ctx context.Context, env *runEnv, c *client, workload string, seed int64, dur time.Duration) (*trial, error) {
	topo, err := startTopology(ctx, env.binDir, env.workDir)
	if err != nil {
		return nil, err
	}
	defer topo.stop()
	c.retarget(topo.baseURL)
	tr := &trial{setup: topo.setup.Seconds()}

	var streams []stream
	var acked []string // ingest_mixed: ids of every acked document
	switch workload {
	case wlSearchCold:
		gen := &shared{gen: newQueryGen(seed)}
		for i := 0; i < numClients; i++ {
			streams = append(streams, searchStream(c, gen.next))
		}
		if _, _, err := drive(ctx, topo, streams, warmup); err != nil {
			return nil, err
		}
	case wlSearchWarm:
		set := hotSet(seed)
		c.identical = true
		if err := touchHotSet(topo, c, set); err != nil {
			return nil, err
		}
		for i := 0; i < numClients; i++ {
			streams = append(streams, searchStream(c, newHotGen(set, seed+int64(i)).next))
		}
	case wlIngestMixed:
		set := hotSet(seed)
		if err := touchHotSet(topo, c, set); err != nil {
			return nil, err
		}
		gen := newIngestGen(seed)
		writer := stream(func() []sample {
			post, marker := gen.next()
			out := []sample{c.exec(post)}
			if out[0].ok {
				for _, d := range post.docs {
					acked = append(acked, d.GetString("_id"))
				}
				out = append(out, c.exec(marker))
			}
			return out
		})
		writer() // one untimed batch
		// exactly one ingest in flight: two concurrent POST /publications
		// crash the server (see README, "Single writer")
		streams = []stream{writer, searchStream(c, newHotGen(set, seed).next)}
	case wlKGBrowse:
		nodes, err := learnKG(c)
		if err != nil {
			return nil, err
		}
		pubIDs := serverPubIDs(seed)
		for _, id := range pubIDs {
			c.exec(op{kind: opPubGet, method: "GET", path: "/api/v1/publications/" + id, id: id})
		}
		for i := 0; i < numClients; i++ {
			gen, err := newKGGen(seed+int64(i), nodes, pubIDs)
			if err != nil {
				return nil, err
			}
			streams = append(streams, func() []sample { return []sample{c.exec(gen.next())} })
		}
		if _, _, err := drive(ctx, topo, streams, warmup); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}

	w, err := runWindow(ctx, topo, c, streams, dur)
	if err != nil {
		return nil, err
	}
	tr.window = w.dur
	tr.obs = measure(workload, w)
	if workload == wlIngestMixed {
		if tr.lost, err = durabilityProbe(ctx, topo, c, acked, int(seed%numShards)); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// trialSeed derives the k-th trial's input seed, so that a run's trials
// measure different inputs and their median averages the inputs too.
func trialSeed(seed int64, k int) int64 { return seed*numTrials + int64(k) }

// runWorkload measures the workload in numTrials independent trials —
// each sets the topology up, warms it and measures a window of
// seconds/numTrials — and reports every metric as the median over the
// trials: a burst of noise on a shared host, or one unlucky process
// instance, spoils one trial, not the run. A traced run is one trial of
// the full length plus the traced replay, which adds the span-sourced
// per-layer numbers. It leaves no process behind.
func runWorkload(ctx context.Context, env *runEnv, workload string, seed int64, seconds int, traced bool) (*result, error) {
	began := time.Now()
	res := &result{workload: workload, seed: seed, traced: traced}
	c := newClient("")
	defer c.close()

	trials := numTrials
	if traced {
		trials = 1 // a traced run reports no end-to-end metric
	}
	dur := time.Duration(seconds) * time.Second / time.Duration(trials)
	var all []observed
	lost := 0
	for k := 0; k < trials; k++ {
		tr, err := runTrial(ctx, env, c, workload, trialSeed(seed, k), dur)
		if err != nil {
			return nil, err
		}
		all = append(all, tr.obs)
		res.setups = append(res.setups, tr.setup)
		res.window += tr.window
		lost += tr.lost
	}
	res.obs = medianOf(all)
	res.obs.e2e["setup_s"] = median(res.setups)
	res.obs.layer["shardnet.acked_lost"] = float64(lost)

	if traced {
		spans, err := tracedRun(ctx, env, c, workload, trialSeed(seed, 0))
		if err != nil {
			return nil, err
		}
		for k, v := range spans {
			res.obs.layer[k] = v
		}
	}

	res.attempted, res.failed = c.attempted.Load(), c.failed.Load()
	res.violations = c.violations
	res.obs.layer["client.failed_share"] = ratio(float64(res.failed), float64(res.attempted))
	res.elapsed = time.Since(began)
	return res, nil
}

// durabilityProbe SIGKILLs one shard, restarts it on the same WAL and
// address, and reads back every acked bench- document the shard map
// routes to it. It returns how many are lost. A process kill leaves the
// OS page cache intact, so this checks WAL replay, not the device.
func durabilityProbe(ctx context.Context, t *topology, c *client, acked []string, shard int) (lost int, err error) {
	if shard < 0 {
		shard = -shard
	}
	smap := shardnet.NewShardMap(t.shardAddrs)
	if err := t.restartShard(ctx, shard); err != nil {
		return 0, err
	}
	if err := t.waitReady(ctx); err != nil {
		return 0, err
	}
	for _, id := range acked {
		if smap.ShardOf(id) != shard {
			continue
		}
		if s := c.exec(op{kind: opPubGet, method: "GET", path: "/api/v1/publications/" + id, id: id}); !s.ok {
			lost++
		}
	}
	return lost, nil
}
