package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail estimated from fewer is one outlier's latency.
const minBeyond = 10

// percentile is the nearest-rank percentile (p in (0,1]) of an
// ascending-sorted sample. supported is false when fewer than minBeyond
// samples lie beyond the returned value; the median of a non-empty
// sample is always supported.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], p <= 0.5 || n-rank >= minBeyond
}

// p50p95 sorts a copy of the sample and returns its median and 95th
// percentile.
func p50p95(samples []float64) (p50, p95 float64, p95ok bool) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p50, _ = percentile(s, 0.50)
	p95, p95ok = percentile(s, 0.95)
	return p50, p95, p95ok
}

func median(samples []float64) float64 {
	p50, _, _ := p50p95(samples)
	return p50
}

// ratio is a/b, or 0 when b is 0: a share of nothing is reported as 0
// so every metric always carries a number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
