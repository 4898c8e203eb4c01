// Package experiments implements the reproduction harness: one function
// per experiment in DESIGN.md's per-experiment index (E1–E10), each
// regenerating a table or figure-level claim from the paper and
// returning a formatted report of paper-claim vs measured values.
// cmd/benchrunner prints these; bench_test.go times their cores.
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"covidkg/internal/cord19"
	"covidkg/internal/core"
)

// Report is one regenerated experiment.
type Report struct {
	ID         string
	Title      string
	PaperClaim string
	Header     []string
	Rows       [][]string
	Notes      []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cols ...string) {
	r.Rows = append(r.Rows, cols)
}

// AddNote appends a free-form observation.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Format renders the report as an aligned text table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	}
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		writeRow := func(cols []string) {
			for i, c := range cols {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
			b.WriteByte('\n')
		}
		writeRow(r.Header)
		sep := make([]string, len(r.Header))
		for i, w := range widths {
			sep[i] = strings.Repeat("-", w)
		}
		writeRow(sep)
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f formats a float at 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f1d formats a float at 1 decimal.
func f1d(v float64) string { return fmt.Sprintf("%.1f", v) }

// ----------------------------------------------------------------------
// Shared benchmark plumbing. The BENCH_* harnesses (loadbench,
// chaosbench, soakbench) all need the same four things — a
// seeded RNG, a generated corpus ingested into a system, an HTTP query
// mix, and percentile math over latency samples — so they live here
// once instead of being copied per bench.

// newBenchRand returns the deterministic PRNG a bench derives its
// schedule from: same seed, same run.
func newBenchRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// ingestCorpus generates and ingests a seeded synthetic corpus into a
// system, panicking on failure (a bench without its corpus has nothing
// to measure).
func ingestCorpus(sys *core.System, seed int64, nDocs int) {
	if err := sys.IngestPublications(cord19.NewGenerator(seed).Corpus(nDocs)); err != nil {
		panic(err)
	}
}

// benchHTTPQueries is the query mix the HTTP-level benches rotate
// through: bare terms plus multi-term queries, all guaranteed to hit
// the generated corpus vocabulary.
var benchHTTPQueries = []string{
	"vaccine", "masks", "fever", "treatment", "covid", "dose",
	"fever dose", "treatment outcomes",
}

// percentile returns the p-quantile (0 < p ≤ 1) of an ascending-sorted
// float slice, 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// p99Us returns the 99th-percentile of a latency sample in
// microseconds. The input is sorted in place.
func p99Us(lats []time.Duration) float64 {
	return durPercentileUs(lats, 0.99)
}

// durPercentileUs returns the p-quantile of a latency sample in
// microseconds. The input is sorted in place.
func durPercentileUs(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	us := make([]float64, len(lats))
	for i, d := range lats {
		us[i] = float64(d.Nanoseconds()) / 1e3
	}
	return percentile(us, p)
}

// WriteBenchJSON marshals a bench result with an indent and writes it
// to path — the one serializer behind every BENCH_*.json artifact.
func WriteBenchJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
