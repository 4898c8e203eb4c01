// Package metrics provides the lightweight, allocation-free observability
// primitives the COVIDKG server uses to prove its performance claims:
// atomic counters and exponential-bucket latency histograms, grouped in a
// registry that snapshots to JSON for the GET /api/v1/metrics endpoint.
//
// All operations are safe for concurrent use and never block the hot
// path: counters are single atomic adds, histogram observations are two
// atomic adds plus one atomic bucket increment.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value — unlike a Counter it moves in
// both directions, tracking levels such as in-flight requests.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// numBuckets covers 1µs up to ~8.4s in doubling steps; slower
// observations land in the overflow bucket.
const numBuckets = 24

// bucketFloor is the upper bound of bucket 0.
const bucketFloor = time.Microsecond

// Histogram records a latency distribution in exponential buckets:
// bucket i holds observations in (1µs·2^(i-1), 1µs·2^i], bucket 0 holds
// everything ≤ 1µs, and the last bucket is the overflow.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [numBuckets + 1]atomic.Int64
}

// bucketOf maps a duration to its bucket index: the smallest i with
// d ≤ 1µs·2^i, capped at the overflow bucket.
func bucketOf(d time.Duration) int {
	i := 0
	for v := d; v > bucketFloor && i < numBuckets; v >>= 1 {
		i++
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		old := h.max.Load()
		if int64(d) <= old || h.max.CompareAndSwap(old, int64(d)) {
			break
		}
	}
	h.buckets[bucketOf(d)].Add(1)
}

// HistogramSnapshot is a consistent-enough point-in-time view of a
// histogram, shaped for JSON.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	SumMs   float64 `json:"sum_ms"`
	MeanUs  float64 `json:"mean_us"`
	MaxUs   float64 `json:"max_us"`
	P50Us   float64 `json:"p50_us"`
	P95Us   float64 `json:"p95_us"`
	P99Us   float64 `json:"p99_us"`
	Buckets []int64 `json:"-"` // raw bucket counts, for tests
}

// Snapshot captures counts and estimated quantiles. Quantiles are
// interpolated within the containing bucket, so they are estimates with
// at most one-bucket (2x) error — plenty for dashboards.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	sum := h.sum.Load()
	s.SumMs = float64(sum) / 1e6
	s.MaxUs = float64(h.max.Load()) / 1e3
	s.Buckets = make([]int64, numBuckets+1)
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	if s.Count > 0 {
		s.MeanUs = float64(sum) / float64(s.Count) / 1e3
		s.P50Us = h.quantile(s.Buckets, s.Count, 0.50)
		s.P95Us = h.quantile(s.Buckets, s.Count, 0.95)
		s.P99Us = h.quantile(s.Buckets, s.Count, 0.99)
	}
	return s
}

// quantile estimates the q-quantile in microseconds from bucket counts.
func (h *Histogram) quantile(buckets []int64, count int64, q float64) float64 {
	rank := q * float64(count)
	cum := 0.0
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			// interpolate inside bucket i: bounds (lo, hi]
			lo, hi := bucketBounds(i)
			frac := 0.5
			if n > 0 {
				frac = (rank - cum) / float64(n)
			}
			ns := lo + (hi-lo)*math.Min(math.Max(frac, 0), 1)
			return ns / 1e3
		}
		cum = next
	}
	_, hi := bucketBounds(numBuckets)
	return hi / 1e3
}

// bucketBounds returns the (lo, hi] nanosecond bounds of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, float64(bucketFloor)
	}
	return float64(bucketFloor) * math.Pow(2, float64(i-1)),
		float64(bucketFloor) * math.Pow(2, float64(i))
}

// Registry is a named collection of counters and histograms. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Snapshot renders every metric into a JSON-ready map: counter values
// under "counters", gauge levels under "gauges", histogram snapshots
// under "histograms", names sorted for stable output.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	counters := map[string]int64{}
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := map[string]int64{}
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := map[string]HistogramSnapshot{}
	for name, h := range r.hists {
		hists[name] = h.Snapshot()
	}
	return map[string]any{"counters": counters, "gauges": gauges, "histograms": hists}
}

// Names returns every registered metric name, sorted (counters, gauges,
// then histograms), for diagnostics.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// defaultRegistry serves the common case of one registry per process.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }
