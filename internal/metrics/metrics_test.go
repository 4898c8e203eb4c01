package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("value = %d", c.Value())
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Hour, numBuckets},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(10 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 101 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MaxUs < 9_000 || s.MaxUs > 11_000 {
		t.Fatalf("max = %v µs", s.MaxUs)
	}
	// p50 must land in the same power-of-two bucket as 100µs (64µs–128µs)
	if s.P50Us < 64 || s.P50Us > 128 {
		t.Fatalf("p50 = %v µs", s.P50Us)
	}
	// p99 must be far below the max but above the median cluster
	if s.P99Us < s.P50Us {
		t.Fatalf("p99 %v < p50 %v", s.P99Us, s.P50Us)
	}
	if s.MeanUs <= 0 {
		t.Fatalf("mean = %v", s.MeanUs)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Duration(n+1) * time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 4000 {
		t.Fatalf("count = %d", got)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter identity lost")
	}
	r.Histogram("h").Observe(time.Millisecond)
	snap := r.Snapshot()
	counters := snap["counters"].(map[string]int64)
	if counters["a"] != 1 {
		t.Fatalf("snapshot counters = %v", counters)
	}
	hists := snap["histograms"].(map[string]HistogramSnapshot)
	if hists["h"].Count != 1 {
		t.Fatalf("snapshot hists = %v", hists)
	}
	names := r.Names()
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
}
