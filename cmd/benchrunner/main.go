// Command benchrunner regenerates the paper's evaluation artifacts: one
// experiment per table/figure-level claim (see DESIGN.md §4), printing
// paper-claim vs measured tables.
//
// Usage:
//
//	benchrunner               # run everything at full size
//	benchrunner -quick        # reduced sizes (~seconds per experiment)
//	benchrunner -exp e1,e3    # selected experiments
//	benchrunner -loadbench BENCH_load.json
//	                          # request-lifecycle overload benchmark:
//	                          # shed/cancel/deadline counts under load
//	benchrunner -chaosbench BENCH_chaos.json
//	                          # chaos schedules, in-process AND process-
//	                          # level (real shard server child processes
//	                          # SIGKILLed mid-write, restarted, migrated):
//	                          # availability, outage p99, lost-write audit
//	benchrunner -soakbench BENCH_soak.json
//	                          # multi-tenant session replay under chaos +
//	                          # live ingest; exits non-zero on SLO breach
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"covidkg/internal/experiments"
	"covidkg/internal/shardnet"
)

func main() {
	// The process chaos bench re-execs this binary as shard servers;
	// child mode must be detected before anything else runs.
	shardnet.MaybeRunChild()

	quick := flag.Bool("quick", false, "run reduced-size experiments")
	exp := flag.String("exp", "all", "comma-separated experiment ids (e1..e10) or 'all'")
	loadBench := flag.String("loadbench", "", "run the request-lifecycle overload benchmark and write JSON to this file")
	chaosBench := flag.String("chaosbench", "", "run the shard kill/recover chaos benchmark and write JSON to this file")
	soakBench := flag.String("soakbench", "", "run the multi-tenant soak benchmark and write JSON to this file; exits non-zero on SLO breach")
	flag.Parse()

	if *soakBench != "" {
		res := experiments.RunSoakBench(*quick)
		writeJSONFile(*soakBench, res)
		fmt.Printf("soak bench over %d docs (%d shards × %d replicas, seed %d), %.0fms wall:\n",
			res.Docs, res.Shards, res.Replicas, res.Seed, res.DurationMs)
		fmt.Printf("  %d requests across %d sessions: %d ok, %d rate-limited, %d quota-denied, %d shed, %d failed\n",
			res.Requests, res.Sessions, res.OK, res.RateLimited, res.QuotaDenied, res.Shed, res.Failed)
		fmt.Printf("  availability %.3f%% (SLO ≥ %.1f%%)\n", res.AvailabilityPct, res.SLOs.AvailabilityPct)
		for _, cs := range res.Classes {
			fmt.Printf("  %-6s p50 %.1fms  p99 %.1fms  (budget %.0fms, %d requests)\n",
				cs.Class, cs.P50Us/1000, cs.P99Us/1000, cs.BudgetMs, cs.Requests)
		}
		for _, ts := range res.Tenants {
			fmt.Printf("  tenant %-7s [%-8s] %d req → %d ok, %d quota-denied, served=%d/%s\n",
				ts.ID, ts.Priority, ts.Requests, ts.OK, ts.QuotaDenied,
				ts.ServedCounter, quotaStr(ts.Quota))
		}
		fmt.Printf("  chaos: %d replica kills; ingest: %d acked, %d rejected, %d lost, %d ghost; inversions=%d\n",
			res.ReplicaKills, res.IngestAcked, res.IngestRejected, res.LostWrites, res.GhostWrites,
			res.AdmissionInversions)
		fmt.Printf("written to %s\n", *soakBench)
		if !res.Pass {
			log.Fatalf("soak SLO breach:\n  - %s", strings.Join(res.Breaches, "\n  - "))
		}
		fmt.Println("all SLOs met")
		return
	}

	if *chaosBench != "" {
		combined := experiments.ChaosBenchCombined{
			InProcess: experiments.RunChaosBench(*quick),
			Process:   experiments.RunProcChaosBench(*quick),
		}
		writeJSONFile(*chaosBench, combined)

		res := combined.InProcess
		fmt.Printf("in-process chaos bench over %d docs (%d shards × %d replicas, seed %d):\n",
			res.Docs, res.Shards, res.Replicas, res.Seed)
		fmt.Printf("  %d queries: %d ok, %d failed → %.2f%% availability (%d partial during outage)\n",
			res.Queries, res.OK, res.Failed, res.AvailabilityPct, res.PartialResponses)
		fmt.Printf("  p99 healthy %.0fµs, p99 one-shard-dark %.0fµs\n", res.P99HealthyUs, res.P99OutageUs)
		fmt.Printf("  writes: %d attempted, %d acked, %d rejected, %d lost, %d resurrected\n",
			res.WritesAttempted, res.WritesAcked, res.WritesRejected, res.LostWrites, res.GhostWrites)
		fmt.Printf("  resync %.1fms, checksums identical: %v (breaker_open=%d hedged=%d resyncs=%d)\n",
			res.ResyncMs, res.ChecksumsIdentical, res.BreakerOpened, res.HedgedRequests, res.ReplicaResyncs)

		proc := combined.Process
		fmt.Printf("process chaos bench over %d docs (%d shard processes × %d replicas, seed %d):\n",
			proc.Docs, proc.Shards, proc.Replicas, proc.Seed)
		fmt.Printf("  %d queries: %d ok, %d failed → %.3f%% availability (%d partial while shard %d dark)\n",
			proc.Queries, proc.OK, proc.Failed, proc.AvailabilityPct, proc.PartialResponses, proc.KilledShard)
		fmt.Printf("  p99 healthy %.0fµs, p99 process-dark %.0fµs\n", proc.P99HealthyUs, proc.P99OutageUs)
		fmt.Printf("  writes: %d attempted, %d acked, %d rejected, %d indeterminate, %d lost, %d ghost\n",
			proc.WritesAttempted, proc.WritesAcked, proc.WritesRejected,
			proc.WritesIndeterminate, proc.LostWrites, proc.GhostWrites)
		fmt.Printf("  SIGKILL→serving %.1fms (WAL replayed %d docs); migration identical=%v (%d bulk, %d delta, paused %.1fms) with %d live writes\n",
			proc.RestartMs, proc.WALReplayDocs, proc.Migration.Identical,
			proc.Migration.BulkDocs, proc.Migration.DeltaPuts, proc.Migration.PausedMs,
			proc.MigrationLiveWrites)

		if res.LostWrites > 0 || res.GhostWrites > 0 || !res.ChecksumsIdentical {
			log.Fatalf("in-process chaos invariant violated: lost=%d ghosts=%d identical=%v",
				res.LostWrites, res.GhostWrites, res.ChecksumsIdentical)
		}
		if !proc.Pass {
			log.Fatalf("process chaos gate breach:\n  - %s", strings.Join(proc.Breaches, "\n  - "))
		}
		fmt.Printf("written to %s\n", *chaosBench)
		fmt.Println("all chaos gates met")
		return
	}

	if *loadBench != "" {
		res := experiments.RunLoadBench(*quick)
		writeJSONFile(*loadBench, res)
		fmt.Printf("load bench over %d docs (%d clients, in-flight cap %d):\n",
			res.Docs, res.Concurrency, res.InflightCap)
		fmt.Printf("  %d requests: %d ok, %d shed (429), %d deadline (504), %d client aborts\n",
			res.Requests, res.OK, res.Shed, res.DeadlineClient, res.CancelledClient)
		fmt.Printf("  server counters: requests_shed=%d requests_cancelled=%d deadline_exceeded=%d\n",
			res.RequestsShed, res.RequestsCancelled, res.DeadlineExceeded)
		fmt.Printf("written to %s\n", *loadBench)
		return
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = nil
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if _, ok := experiments.Registry[id]; !ok {
				log.Fatalf("unknown experiment %q (have %v)", id, experiments.IDs())
			}
			ids = append(ids, id)
		}
	}

	start := time.Now()
	for _, id := range ids {
		t0 := time.Now()
		rep := experiments.Registry[id](*quick)
		fmt.Println(rep.Format())
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("all experiments done in %s\n", time.Since(start).Round(time.Millisecond))
}

// writeJSONFile delegates to the experiments package's shared
// serializer, fatally on any error — benchmark output is the whole
// point of the run.
func writeJSONFile(path string, v any) {
	if err := experiments.WriteBenchJSON(path, v); err != nil {
		log.Fatal(err)
	}
}

// quotaStr renders a quota for the console summary ("∞" when unset).
func quotaStr(q int64) string {
	if q <= 0 {
		return "∞"
	}
	return fmt.Sprintf("%d", q)
}
