// Package index implements the inverted text index and the TF-IDF term
// weighting [Spärck Jones 1972] that back the COVIDKG search engines'
// ranking function (§2.1). The index stores, per stemmed term, positional
// postings by document and field, so rankers can weight the number of
// matches, the field a term matched in, and the proximity between
// matched terms — the three dynamic features the paper names.
//
// Internally the index is LSM-shaped: writes land in a small mutable
// memtable; once the memtable crosses a document threshold it is frozen
// at a document boundary and sealed in the background into an immutable
// segment holding delta-varint block-compressed posting lists with
// exact per-term max-score bounds. A size-tiered background merger
// compacts small segments. Readers aggregate across the memtable, the
// (at most one) sealing memtable, and the sealed segments; because
// sealing and merging preserve logical content, query results are
// unchanged by segment lifecycle transitions.
package index

import (
	"math"
	"sort"
	"sync"

	"covidkg/internal/textproc"
)

// DefaultSealDocs is the memtable document threshold that triggers a
// background seal. Small enough that a bulk load produces real
// segments, large enough that unit-test-sized corpora stay purely
// in-memory.
const DefaultSealDocs = 2048

// Posting records the occurrences of one term in one field of one
// document. Positions are token offsets within that field.
type Posting struct {
	DocID     string
	Field     string
	Positions []int
}

// Index is a thread-safe inverted index over stemmed content words,
// structured as memtable + sealed segments (see the package comment).
// The public read API reports the aggregate view across all parts.
type Index struct {
	mu sync.RWMutex
	// cond signals seal/merge completion (waiters: Remove and
	// SetStatic on frozen docs, Seal, Compact, SetFieldWeights).
	cond *sync.Cond

	mem *memtable
	// sealing is the frozen memtable a background builder is turning
	// into a segment (nil when no seal is in flight). It is immutable
	// while set; readers still consult it.
	sealing *memtable
	segs    []*segment

	weights  map[string]float64
	sealDocs int
	nextSeg  uint64

	// termGens maps term → last write sequence that touched it; the
	// search layer's scoped cache invalidation compares these.
	termGens map[string]uint64
	seq      uint64

	// crossSource is set once any document's postings span more than
	// one part (only possible when a doc id is re-added after sealing).
	// It switches TermSnapshots from max to sum when combining
	// per-part score bounds, keeping them valid upper bounds.
	crossSource bool

	merging bool
	wg      sync.WaitGroup

	seals  uint64
	merges uint64
	epoch  uint64
}

// New creates an empty index with the default seal threshold.
func New() *Index {
	ix := &Index{
		mem:      newMemtable(),
		sealDocs: DefaultSealDocs,
		termGens: map[string]uint64{},
	}
	ix.cond = sync.NewCond(&ix.mu)
	return ix
}

// SetSealThreshold overrides the memtable document count that triggers
// a background seal; n <= 0 disables automatic sealing. Benchmarks and
// tests use it to force or forbid segment churn.
func (ix *Index) SetSealThreshold(n int) {
	ix.mu.Lock()
	ix.sealDocs = n
	ix.mu.Unlock()
}

// memsLocked returns the live memtable parts: the active memtable and,
// when a seal is in flight, the frozen one being sealed. Caller holds
// ix.mu (read or write).
func (ix *Index) memsLocked() []*memtable {
	if ix.sealing != nil {
		return []*memtable{ix.mem, ix.sealing}
	}
	return []*memtable{ix.mem}
}

// SetFieldWeights installs the per-field ranking weights backing the
// precomputed weighted-TF partials and recomputes every per-term
// maximum under the new weights. Call it once, right after New, before
// indexing documents — a live reweigh is correct but pays a full pass
// over the postings of every part.
func (ix *Index) SetFieldWeights(w map[string]float64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for ix.sealing != nil || ix.merging {
		ix.cond.Wait()
	}
	ix.weights = make(map[string]float64, len(w))
	for f, v := range w {
		ix.weights[f] = v
	}
	ix.mem.recomputeBounds(ix.weights)
	for _, s := range ix.segs {
		s.recomputeBounds(ix.weights)
	}
}

// SetStatic records a document's query-independent score component
// (the search engine stores the recency feature here at indexing time).
func (ix *Index) SetStatic(docID string, v float64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.mem.docs[docID]; ok {
		ix.mem.setStatic(docID, v)
		return
	}
	// A frozen memtable is being read by its seal builder without the
	// lock; wait the seal out rather than mutate it.
	for ix.sealing != nil {
		if _, ok := ix.sealing.docs[docID]; !ok {
			break
		}
		ix.cond.Wait()
	}
	for _, s := range ix.segs {
		if ord, ok := s.ordOf(docID); ok && !s.dead[ord] {
			// copy on write: cursors and a running merge read the old
			// slice without the lock
			s.static = append([]float64(nil), s.static...)
			s.static[ord] = v
			return
		}
	}
	ix.mem.static[docID] = v
}

// Static returns the document's query-independent score component
// (zero when never set).
func (ix *Index) Static(docID string) float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.staticLocked(docID)
}

func (ix *Index) staticLocked(docID string) float64 {
	for _, m := range ix.memsLocked() {
		if v, ok := m.static[docID]; ok {
			return v
		}
	}
	for _, s := range ix.segs {
		if ord, ok := s.ordOf(docID); ok && !s.dead[ord] {
			return s.static[ord]
		}
	}
	return 0
}

// Add tokenizes, stems, and indexes text as the given field of doc.
// Calling Add twice for the same (doc, field) appends, with positions
// continuing after the previous call's tokens. The per-term posting
// lists and max-score partials are maintained incrementally. Crossing
// the seal threshold at a document boundary freezes the memtable and
// seals it into a segment in the background.
func (ix *Index) Add(docID, field, text string) {
	terms := textproc.ContentWords(text)
	ix.mu.Lock()
	defer ix.mu.Unlock()

	if _, inMem := ix.mem.docs[docID]; !inMem && docID != ix.mem.lastDoc {
		// First touch of a new document: the only point a seal may
		// trigger (so one doc's postings never straddle the boundary),
		// and the point to detect a re-add of an already-sealed id.
		if ix.sealDocs > 0 && ix.sealing == nil && len(ix.mem.docs) >= ix.sealDocs {
			ix.freezeLocked()
		}
		if !ix.crossSource && ix.partOtherThanMemHas(docID) {
			ix.crossSource = true
		}
	}

	base := ix.mem.fieldLen[fieldKey{docID, field}]
	if ix.crossSource {
		base = ix.fieldLenLocked(docID, field)
	}
	ix.mem.add(docID, field, terms, base, ix.weights)

	ix.seq++
	for _, t := range terms {
		ix.termGens[t] = ix.seq
	}
}

// partOtherThanMemHas reports whether the doc id is live anywhere
// outside the active memtable. Caller holds ix.mu.
func (ix *Index) partOtherThanMemHas(docID string) bool {
	if ix.sealing != nil {
		if _, ok := ix.sealing.docs[docID]; ok {
			return true
		}
	}
	for _, s := range ix.segs {
		if ord, ok := s.ordOf(docID); ok && !s.dead[ord] {
			return true
		}
	}
	return false
}

// fieldLenLocked sums the (doc, field) token count across every part.
func (ix *Index) fieldLenLocked(docID, field string) int {
	n := 0
	for _, m := range ix.memsLocked() {
		n += m.fieldLen[fieldKey{docID, field}]
	}
	for _, s := range ix.segs {
		if ord, ok := s.ordOf(docID); ok && !s.dead[ord] {
			if fid, ok := s.fieldN[field]; ok {
				n += s.fieldLenOf(ord, fid)
			}
		}
	}
	return n
}

// Remove deletes every posting of doc: memtable postings are removed in
// place, sealed postings are tombstoned (space is reclaimed at the next
// merge). Affected posting lists are invalidated; per-term maxima are
// deliberately left as-is (monotone maxima remain valid upper bounds).
func (ix *Index) Remove(docID string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// The sealing memtable is read lock-free by its builder; wait any
	// in-flight seal out so the tombstone lands on the built segment.
	for ix.sealing != nil {
		ix.cond.Wait()
	}
	touched := ix.mem.remove(docID)
	for _, s := range ix.segs {
		if ord, ok := s.ordOf(docID); ok && !s.dead[ord] {
			touched = append(touched, s.termsOf(ord)...)
			s.markDead(ord)
		}
	}
	if len(touched) == 0 {
		return
	}
	ix.seq++
	for _, t := range touched {
		ix.termGens[t] = ix.seq
	}
}

// TermGens returns the last write sequence that touched each given
// term (zero for never-written terms). The search layer captures these
// before computing a page and revalidates cached pages against them:
// a page goes stale only when one of its own terms was written, not on
// every ingest.
func (ix *Index) TermGens(terms []string) []uint64 {
	out := make([]uint64, len(terms))
	ix.mu.RLock()
	for i, t := range terms {
		out[i] = ix.termGens[t]
	}
	ix.mu.RUnlock()
	return out
}

// WriteSeq returns the index's global write sequence (bumped by every
// Add/Remove). Cached pages with unbounded term scope revalidate
// against this.
func (ix *Index) WriteSeq() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.seq
}

// DocCount returns the number of indexed documents.
func (ix *Index) DocCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docCountLocked()
}

func (ix *Index) docCountLocked() int {
	n := 0
	for _, m := range ix.memsLocked() {
		n += len(m.docs)
	}
	for _, s := range ix.segs {
		n += s.liveDocs()
	}
	return n
}

// DocFreq returns the number of documents containing term (already
// stemmed).
func (ix *Index) DocFreq(term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docFreqLocked(term)
}

func (ix *Index) docFreqLocked(term string) int {
	n := 0
	for _, m := range ix.memsLocked() {
		n += len(m.postings[term])
	}
	for _, s := range ix.segs {
		if t, ok := s.tid(term); ok {
			n += s.liveDF(t)
		}
	}
	return n
}

// idf is the inverse document frequency log((N+1)/(df+1)) + 1, smoothed
// so unseen terms still rank.
func idf(n, df int) float64 { return math.Log(float64(n+1)/float64(df+1)) + 1 }

// Lookup returns all postings of a stemmed term, sorted by (doc, field)
// for determinism, nil when the term posts for no live document.
func (ix *Index) Lookup(term string) []Posting {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	type dfKey struct{ doc, field string }
	acc := map[dfKey][]int{}
	add := func(doc, field string, pos []int) {
		k := dfKey{doc, field}
		acc[k] = append(acc[k], pos...)
	}
	for _, s := range ix.segs {
		t, ok := s.tid(term)
		if !ok {
			continue
		}
		s.forEachEntry(t, func(e segEntry) bool {
			if s.dead[e.ord] {
				return true
			}
			for _, f := range e.fields {
				add(s.docIDs[e.ord], s.fields[f.fieldID], f.pos)
			}
			return true
		})
	}
	for _, m := range ix.memsLocked() {
		for doc, fp := range m.postings[term] {
			for _, r := range fp {
				add(doc, r.field, r.pos)
			}
		}
	}
	if len(acc) == 0 {
		return nil
	}
	out := make([]Posting, 0, len(acc))
	for k, pos := range acc {
		cp := append([]int(nil), pos...)
		sort.Ints(cp)
		out = append(out, Posting{DocID: k.doc, Field: k.field, Positions: cp})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DocID != out[j].DocID {
			return out[i].DocID < out[j].DocID
		}
		return out[i].Field < out[j].Field
	})
	return out
}
