package index

import "sort"

// mergeFanIn is the minimum number of similar-sized segments that
// triggers a size-tiered merge; mergeMaxFan caps one merge's inputs.
const (
	mergeFanIn   = 4
	mergeMaxFan  = 8
	mergeSizeMul = 4 // segments within this size ratio share a tier
)

// freezeLocked moves the active memtable into the sealing slot, starts
// a fresh memtable, and launches the background seal builder. Caller
// holds ix.mu and has checked ix.sealing == nil and the memtable is
// non-empty.
func (ix *Index) freezeLocked() {
	if len(ix.mem.docs) == 0 {
		return
	}
	frozen := ix.mem
	ix.sealing = frozen
	ix.mem = newMemtable()
	id := ix.nextSeg
	ix.nextSeg++
	weights := ix.weights
	ix.wg.Add(1)
	go func() {
		defer ix.wg.Done()
		// The frozen memtable is immutable from here on (mutators that
		// would touch it wait on ix.cond), so building needs no lock.
		seg := buildSegment(id, frozen, weights)
		ix.mu.Lock()
		ix.segs = append(ix.segs, seg)
		ix.sealing = nil
		ix.seals++
		ix.epoch++
		ix.cond.Broadcast()
		ix.maybeMergeLocked()
		ix.mu.Unlock()
	}()
}

// Seal synchronously freezes and seals the current memtable into a
// segment (no-op when the memtable is empty). Tests and the persist
// path use it; production writes seal in the background via the
// threshold in Add.
func (ix *Index) Seal() {
	ix.mu.Lock()
	for ix.sealing != nil {
		ix.cond.Wait()
	}
	ix.freezeLocked()
	for ix.sealing != nil {
		ix.cond.Wait()
	}
	ix.mu.Unlock()
}

// Wait blocks until all in-flight background seals and merges finish.
// Callers that keep writing can trigger new ones; quiesce first.
func (ix *Index) Wait() {
	ix.wg.Wait()
}

// maybeMergeLocked launches a background merge when the size-tiered
// policy finds a run of similar-sized segments. At most one merge runs
// at a time. Caller holds ix.mu.
func (ix *Index) maybeMergeLocked() {
	if ix.merging {
		return
	}
	inputs := ix.pickMergeLocked()
	if inputs == nil {
		return
	}
	ix.merging = true
	id := ix.nextSeg
	ix.nextSeg++
	ix.wg.Add(1)
	go ix.runMerge(id, inputs)
}

// pickMergeLocked implements the size-tiered policy: order segments by
// live size and merge the first run of ≥ mergeFanIn segments that all
// fit within mergeSizeMul of the run's smallest. Caller holds ix.mu.
func (ix *Index) pickMergeLocked() []*segment {
	if len(ix.segs) < mergeFanIn {
		return nil
	}
	bySize := append([]*segment(nil), ix.segs...)
	sort.Slice(bySize, func(i, j int) bool { return bySize[i].liveDocs() < bySize[j].liveDocs() })
	for i := 0; i+mergeFanIn <= len(bySize); i++ {
		limit := bySize[i].liveDocs() * mergeSizeMul
		if limit < 1 {
			limit = 1
		}
		j := i + 1
		for j < len(bySize) && j-i < mergeMaxFan && bySize[j].liveDocs() <= limit {
			j++
		}
		if j-i >= mergeFanIn {
			return bySize[i:j]
		}
	}
	return nil
}

// runMerge decodes the input segments (honoring a tombstone snapshot
// taken at start) into one memtable, seals it into one segment, then
// swaps it in. Docs tombstoned while the merge ran are re-tombstoned on
// the merged segment at swap time, so no removal is lost. Runs on its
// own goroutine; ix.merging serializes merges.
func (ix *Index) runMerge(id uint64, inputs []*segment) {
	defer ix.wg.Done()

	ix.mu.RLock()
	deadSnaps := make([][]bool, len(inputs))
	for i, s := range inputs {
		deadSnaps[i] = append([]bool(nil), s.dead...)
	}
	weights := ix.weights
	ix.mu.RUnlock()

	src := newMemtable()
	for i, s := range inputs {
		s.decodeInto(src, deadSnaps[i])
	}
	merged := buildSegment(id, src, weights)

	ix.mu.Lock()
	ix.swapMergedLocked(inputs, merged)
	ix.merging = false
	ix.merges++
	ix.epoch++
	ix.cond.Broadcast()
	ix.maybeMergeLocked()
	ix.mu.Unlock()
}

// swapMergedLocked replaces the merge inputs with the merged segment
// and applies every tombstone that landed on an input while the merge
// ran. Caller holds ix.mu.
func (ix *Index) swapMergedLocked(inputs []*segment, merged *segment) {
	drop := make(map[*segment]bool, len(inputs))
	for _, s := range inputs {
		drop[s] = true
	}
	out := make([]*segment, 0, len(ix.segs)-len(inputs)+1)
	placed := false
	for _, s := range ix.segs {
		if drop[s] {
			if !placed {
				out = append(out, merged)
				placed = true
			}
			continue
		}
		out = append(out, s)
	}
	if !placed {
		out = append(out, merged)
	}
	ix.segs = out

	// Catch up with concurrent mutations. Every merged doc was live in
	// some input when the merge began; a Remove since then tombstoned
	// all of its live copies, so it is dead now only if no input still
	// holds it live. A doc may sit in several inputs — a tombstoned old
	// copy beside its live re-add — and the old copy's tombstone must
	// not kill the re-add.
	for ord, docID := range merged.docIDs {
		live := false
		for _, in := range inputs {
			if inOrd, ok := in.ordOf(docID); ok && !in.dead[inOrd] {
				live = true
			}
		}
		if !live {
			merged.markDead(ord)
		}
	}
}

// Compact synchronously merges every sealed segment (and the current
// memtable, which is sealed first) into a single segment, dropping all
// tombstoned postings. Intended for tests and offline maintenance.
func (ix *Index) Compact() {
	ix.Seal()
	ix.mu.Lock()
	for ix.merging {
		ix.cond.Wait()
	}
	if len(ix.segs) < 2 {
		ix.mu.Unlock()
		return
	}
	inputs := append([]*segment(nil), ix.segs...)
	ix.merging = true
	id := ix.nextSeg
	ix.nextSeg++
	ix.mu.Unlock()

	ix.wg.Add(1)
	ix.runMerge(id, inputs)
	ix.Wait()
}

// Stats is a point-in-time summary of the index's segment structure.
type Stats struct {
	MemDocs     int     `json:"mem_docs"`
	Sealing     bool    `json:"sealing"`
	Segments    int     `json:"segments"`
	SegmentDocs int     `json:"segment_docs"` // live docs across segments
	DeadDocs    int     `json:"dead_docs"`    // tombstoned, awaiting merge
	Seals       uint64  `json:"seals"`
	Merges      uint64  `json:"merges"`
	Epoch       uint64  `json:"epoch"`      // bumps on every seal/merge
	PostingMB   float64 `json:"posting_mb"` // encoded posting bytes across segments
}

// Stats reports the current segment structure and lifecycle counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := Stats{
		MemDocs:  len(ix.mem.docs),
		Sealing:  ix.sealing != nil,
		Segments: len(ix.segs),
		Seals:    ix.seals,
		Merges:   ix.merges,
		Epoch:    ix.epoch,
	}
	if ix.sealing != nil {
		st.MemDocs += len(ix.sealing.docs)
	}
	bytes := 0
	for _, s := range ix.segs {
		st.SegmentDocs += s.liveDocs()
		st.DeadDocs += s.deadN
		bytes += s.bytes
	}
	st.PostingMB = float64(bytes) / (1 << 20)
	return st
}
