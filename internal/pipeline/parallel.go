package pipeline

import "sync"

// ParallelChunks partitions [0, n) into at most workers contiguous
// chunks and runs fn(lo, hi) for each chunk on its own goroutine,
// returning when all chunks are done. workers ≤ 1 (or n small) degrades
// to a single synchronous call, so serial and parallel execution follow
// the same code path.
func ParallelChunks(n, workers int, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MinItemsPerWorker is the fan-out floor CPU-bound loops apply through
// ParallelChunksMin: spawning a goroutine to match or rank fewer
// documents than this costs more in scheduling than the work itself, so
// small inputs run on fewer goroutines (degrading to fully serial)
// instead of paying a full fan-out that makes "parallel" slower than
// serial. Network-bound fan-outs (per-shard scatter reads) must NOT
// apply the floor — there a chunk's cost is a round trip, not CPU.
const MinItemsPerWorker = 64

// ParallelChunksMin is ParallelChunks with the per-goroutine floor
// applied: the effective worker count is capped at n/minPerWorker so
// every goroutine gets at least minPerWorker items of real work.
func ParallelChunksMin(n, workers, minPerWorker int, fn func(lo, hi int)) {
	if minPerWorker > 1 && workers > 1 {
		if maxW := n / minPerWorker; workers > maxW {
			workers = maxW
		}
		if workers < 1 {
			workers = 1
		}
	}
	ParallelChunks(n, workers, fn)
}
