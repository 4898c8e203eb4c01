package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"covidkg/internal/cord19"
	"covidkg/internal/jsondoc"
	"covidkg/internal/shardnet"
)

// E6 reproduces the §2 storage claims at reduced scale: the corpus lives
// in a hash-sharded JSON store, here shardnet shard servers in this
// process behind the one coordinator. Ingest places documents on the
// consistent-hash ring, and a concurrent read workload — the enrichment
// pattern of Figure 1, where classifiers "run non-stop, classifying new
// incoming publications" — is served by every shard at once.
func E6(quick bool) *Report {
	r := &Report{
		ID:    "E6",
		Title: "Sharded storage scaling (§2 Storage)",
		PaperClaim: ">450,000 publications in a sharded MongoDB, ≈965 GB dataset, " +
			">5 TB raw; DL models running non-stop enriching stored documents",
		Header: []string{"shards", "docs", "ingest", "max/min shard", "get ops/s", "speedup"},
	}
	nDocs, workers, opsPerWorker := 4000, 8, 1500
	if quick {
		nDocs, workers, opsPerWorker = 1000, 4, 400
	}
	g := cord19.NewGenerator(51)
	docs := make([]jsondoc.Doc, nDocs)
	for i, p := range g.Corpus(nDocs) {
		docs[i] = p.Doc()
	}

	ctx := context.Background()
	var base, spread float64
	for _, shards := range []int{1, 2, 4, 8} {
		co := shardnet.Local(shardnet.Config{Collection: "pubs"}, shards)
		start := time.Now()
		ids := make([]string, 0, nDocs)
		for _, d := range docs {
			id, err := co.Insert(d)
			if err != nil {
				panic(err)
			}
			ids = append(ids, id)
		}
		ingest := time.Since(start)

		health := co.Health(ctx)
		minS, maxS := health[0].Docs, health[0].Docs
		for _, h := range health {
			minS, maxS = min(minS, h.Docs), max(maxS, h.Docs)
		}
		spread = float64(maxS*shards) / float64(nDocs)

		// concurrent enrichment reads: each worker fetches random
		// documents through the coordinator, as a classifier does
		start = time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerWorker; i++ {
					if _, err := co.Get(ids[rng.Intn(len(ids))]); err != nil {
						panic(err)
					}
				}
			}(int64(w + 1))
		}
		wg.Wait()
		getDur := time.Since(start)
		co.Close()
		rate := float64(workers*opsPerWorker) / getDur.Seconds()
		if shards == 1 {
			base = rate
		}
		r.AddRow(fmt.Sprintf("%d", shards), fmt.Sprintf("%d", nDocs),
			ingest.Round(time.Millisecond).String(),
			fmt.Sprintf("%d/%d", maxS, minS),
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.2fx", rate/base))
	}
	r.AddNote("read workload: %d workers × %d coordinator Gets (the Figure 1 "+
		"non-stop enrichment pattern reads every stored document); every call "+
		"crosses the shard codec over an in-memory connection", workers, opsPerWorker)
	r.AddNote("placement is the shardnet consistent-hash ring (128 vnodes per shard), "+
		"which spreads wider than a modulo hash: max/mean %.2f at 8 shards", spread)
	if runtime.NumCPU() == 1 {
		r.AddNote("host has 1 CPU: concurrent shards cannot shorten wall-clock here; " +
			"the measurable shape is the spread (max/min column) and that " +
			"sharding adds no overhead (speedup ≈ 1.0x across shard counts)")
	} else {
		r.AddNote("host has %d CPUs: coordinator, codec and shard servers share them, "+
			"so read throughput is bounded by the CPUs, not the shard count", runtime.NumCPU())
	}
	r.AddNote("paper scale: 450k pubs ≈ %dx this corpus", 450000/nDocs)
	return r
}
