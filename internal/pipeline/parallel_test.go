package pipeline

import (
	"sync/atomic"
	"testing"
)

func TestParallelChunksCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		var hits atomic.Int64
		ParallelChunks(57, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits.Add(1)
			}
		})
		if hits.Load() != 57 {
			t.Fatalf("workers=%d covered %d of 57", workers, hits.Load())
		}
	}
	// n=0 must not call fn
	ParallelChunks(0, 4, func(lo, hi int) { t.Fatal("called for n=0") })
}

// TestParallelChunksMinFloor: below the per-goroutine floor the work runs
// as one synchronous call; above it every goroutine gets at least the
// floor, and the chunks still cover [0, n) exactly once.
func TestParallelChunksMinFloor(t *testing.T) {
	for _, tc := range []struct{ n, workers, wantChunks int }{
		{63, 8, 1}, {128, 8, 2}, {1000, 4, 4}, {1000, 1, 1},
	} {
		var chunks, hits atomic.Int64
		ParallelChunksMin(tc.n, tc.workers, MinItemsPerWorker, func(lo, hi int) {
			chunks.Add(1)
			hits.Add(int64(hi - lo))
		})
		if int(chunks.Load()) != tc.wantChunks || int(hits.Load()) != tc.n {
			t.Fatalf("n=%d workers=%d: %d chunks covering %d, want %d covering %d",
				tc.n, tc.workers, chunks.Load(), hits.Load(), tc.wantChunks, tc.n)
		}
	}
}
