// Command benchmark is this repository's one benchmark: it builds
// covidkg-server and covidkg-shard from the checkout it runs in, spawns
// the real topology (4 WAL-backed shard processes behind one server),
// drives one named workload at it over HTTP, checks every response, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) by name with their units. See README.md.
//
//	bash benchmark/run.sh -workload search_cold -seed 1 -seconds 15 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// envStamp says where and on what a number was measured.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Pubs       int    `json:"server_pubs"`
	Clients    int    `json:"clients"`
}

func stamp(repoRoot string) envStamp {
	st := envStamp{
		Commit:     "unknown", // a checkout without .git has none
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		Pubs:       serverPubs,
		Clients:    numClients,
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = repoRoot
	if out, err := cmd.Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return st
}

// findRepoRoot walks up from the working directory to the checkout that
// holds the programs the benchmark builds.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "covidkg-server", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout with cmd/covidkg-server above the working directory")
		}
		dir = parent
	}
}

// report prints one run for a reader: every metric by name with its
// unit, then the driver's line — one JSON object, last on stdout.
func report(env *runEnv, res *result, seconds int) {
	st, _ := json.Marshal(stamp(env.repoRoot))
	fmt.Printf("env %s\n", st)
	fmt.Printf("run workload=%s seed=%d seconds=%d traced=%v setups_s=%.3v window_s=%.3f elapsed_s=%.1f\n",
		res.workload, res.seed, seconds, res.traced, res.setups, res.window.Seconds(), res.elapsed.Seconds())
	defs, vals := endToEnd, res.obs.e2e
	if res.traced {
		defs, vals = perLayer, res.obs.layer
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-42s %14.4f %-6s", d.name, vals[d.name], d.unit)
		if n, ok := res.obs.counts[d.name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(line)
	}
	if !res.traced {
		// the untraced run still has the client's, the scrape's and
		// /proc's layer numbers; show the ones that say the workload did
		// what it claims
		for _, name := range []string{"client.p95_ms", "client.reader_p50_ms", "search.cache_hit_share", "search.fallback_share", "gen.cpu_share", "shardnet.acked_lost"} {
			fmt.Printf("  (%s %.4f)\n", name, res.obs.layer[name])
		}
	}
	fmt.Printf("requests attempted=%d failed=%d\n", res.attempted, res.failed)
	for _, v := range res.violations {
		fmt.Printf("  violation: %s\n", v)
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Println(string(line))
}

// repeatAll runs every workload n times untraced and prints, per
// end-to-end metric, the widest relative difference between runs beside
// the bound that difference must stay within.
func repeatAll(ctx context.Context, env *runEnv, seed int64, seconds, n int) (ok bool, err error) {
	ok = true
	for _, wl := range workloadNames {
		runs := make([]*result, n)
		for i := range runs {
			if runs[i], err = runWorkload(ctx, env, wl, seed, seconds, false); err != nil {
				return false, err
			}
			ok = ok && runs[i].correct()
		}
		fmt.Printf("%s (%d runs, seed %d, %d s)\n", wl, n, seed, seconds)
		for _, d := range endToEnd {
			vs := make([]float64, n)
			for i, r := range runs {
				vs[i] = r.obs.e2e[d.name]
			}
			sort.Float64s(vs)
			diff := ratio(vs[n-1]-vs[0], median(vs))
			verdict := "within"
			if diff > d.bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Printf("  %-16s %.4f %s  spread %.1f%% %s bound %.0f%%\n", d.name, vs, d.unit, diff*100, verdict, d.bound*100)
		}
	}
	return ok, nil
}

// run reports whether every response of every run was correct.
func run() (correct bool, err error) {
	workload := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "total length of the timed windows")
	trace := flag.Int("trace", 0, "1 adds the traced replay and prints the per-layer metrics instead of the end-to-end ones")
	repeat := flag.Int("repeat", 0, "run every workload this many times and print each end-to-end metric's spread against its bound")
	flag.Parse()
	if (*workload == "") == (*repeat == 0) || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		return false, errors.New("want -workload <name> or -repeat <n>, -seconds of at least 1 and -trace 0 or 1")
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	root, err := findRepoRoot()
	if err != nil {
		return false, err
	}
	// binaries and WALs live under one directory inside the checkout,
	// removed on every exit path
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(work)
	env := &runEnv{repoRoot: root, binDir: filepath.Join(work, "bin"), workDir: work}
	if err := buildBinaries(ctx, root, env.binDir); err != nil {
		return false, err
	}

	if *repeat > 0 {
		return repeatAll(ctx, env, *seed, *seconds, *repeat)
	}
	res, err := runWorkload(ctx, env, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		return false, err
	}
	report(env, res, *seconds)
	return res.correct(), nil
}

func main() {
	correct, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	if err != nil || !correct {
		os.Exit(1)
	}
}
