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
		ix.mem.static[docID] = v
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

// IDF returns the inverse document frequency of a stemmed term:
// log((N+1)/(df+1)) + 1, smoothed so unseen terms still rank.
func (ix *Index) IDF(term string) float64 {
	ix.mu.RLock()
	n := ix.docCountLocked()
	df := ix.docFreqLocked(term)
	ix.mu.RUnlock()
	return math.Log(float64(n+1)/float64(df+1)) + 1
}

// TermFreq returns the occurrence count of term in the given field of
// doc, summed across parts.
func (ix *Index) TermFreq(term, docID, field string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, m := range ix.memsLocked() {
		n += len(m.postings[term][docID].positions(field))
	}
	for _, s := range ix.segs {
		ord, ok := s.ordOf(docID)
		if !ok || s.dead[ord] {
			continue
		}
		t, ok := s.tid(term)
		if !ok {
			continue
		}
		fid, ok := s.fieldN[field]
		if !ok {
			continue
		}
		if e, ok := s.entry(t, ord); ok {
			for _, f := range e.fields {
				if f.fieldID == fid {
					n += len(f.pos)
				}
			}
		}
	}
	return n
}

// TFIDF returns the tf·idf weight of term in doc, summed across fields
// and normalized by field length.
func (ix *Index) TFIDF(term, docID string) float64 {
	ix.mu.RLock()
	perField := ix.fieldPositionsLocked(term, docID)
	// Sum in sorted field order: float addition is order-sensitive at
	// the last ulp, and map iteration order would make repeated calls
	// (and flat-vs-segmented comparisons) nondeterministic.
	fields := make([]string, 0, len(perField))
	for field := range perField {
		fields = append(fields, field)
	}
	sort.Strings(fields)
	tf := 0.0
	for _, field := range fields {
		if l := ix.fieldLenLocked(docID, field); l > 0 {
			tf += float64(len(perField[field])) / float64(l)
		}
	}
	ix.mu.RUnlock()
	if tf == 0 {
		return 0
	}
	return tf * ix.IDF(term)
}

// fieldPositionsLocked gathers (term, doc) positions per field across
// every part. Positions from distinct parts occupy distinct ranges
// (Add continues positions across seals), but are re-sorted when more
// than one part contributed, since part order need not match position
// order. Caller holds at least a read lock.
func (ix *Index) fieldPositionsLocked(term, docID string) map[string][]int {
	var out map[string][]int
	multi := false
	addRun := func(field string, pos []int) {
		if len(pos) == 0 {
			return
		}
		if out == nil {
			out = map[string][]int{}
		}
		if _, ok := out[field]; ok {
			multi = true
		}
		out[field] = append(out[field], pos...)
	}
	for _, s := range ix.segs {
		ord, ok := s.ordOf(docID)
		if !ok || s.dead[ord] {
			continue
		}
		t, ok := s.tid(term)
		if !ok {
			continue
		}
		if e, ok := s.entry(t, ord); ok {
			for _, f := range e.fields {
				addRun(s.fields[f.fieldID], f.pos)
			}
		}
	}
	for _, m := range ix.memsLocked() {
		for _, r := range m.postings[term][docID] {
			addRun(r.field, r.pos)
		}
	}
	if multi {
		for _, pos := range out {
			if !sort.IntsAreSorted(pos) {
				sort.Ints(pos)
			}
		}
	}
	return out
}

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

// hasTermDocLocked reports whether doc has a live posting for term in
// any part.
func (ix *Index) hasTermDocLocked(term, docID string) bool {
	for _, m := range ix.memsLocked() {
		if _, ok := m.postings[term][docID]; ok {
			return true
		}
	}
	for _, s := range ix.segs {
		ord, ok := s.ordOf(docID)
		if !ok || s.dead[ord] {
			continue
		}
		if t, ok := s.tid(term); ok && s.contains(t, ord) {
			return true
		}
	}
	return false
}

// DocsWithAll returns the ids of documents containing every given stemmed
// term (in any field), sorted.
func (ix *Index) DocsWithAll(terms []string) []string {
	if len(terms) == 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	smallest := ""
	smallestN := math.MaxInt
	for _, t := range terms {
		n := ix.docFreqLocked(t)
		if n < smallestN {
			smallestN, smallest = n, t
		}
	}
	if smallestN == 0 {
		return nil
	}
	var out []string
	seen := map[string]struct{}{}
	check := func(doc string) {
		if _, dup := seen[doc]; dup {
			return
		}
		seen[doc] = struct{}{}
		for _, t := range terms {
			if t == smallest {
				continue
			}
			if !ix.hasTermDocLocked(t, doc) {
				return
			}
		}
		out = append(out, doc)
	}
	for _, m := range ix.memsLocked() {
		for doc := range m.postings[smallest] {
			check(doc)
		}
	}
	for _, s := range ix.segs {
		if t, ok := s.tid(smallest); ok {
			for _, doc := range s.docList(t) {
				check(doc)
			}
		}
	}
	if out == nil {
		return nil
	}
	sort.Strings(out)
	return out
}

// DocsWithAnyInFields returns the ids of documents containing at least
// one of the given stemmed terms inside one of the allowed fields (nil
// fields means any field), sorted. Search engines use this to restrict
// a query to candidate documents before ranking.
func (ix *Index) DocsWithAnyInFields(terms []string, fields map[string]bool) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	set := map[string]struct{}{}
	for _, t := range terms {
		for _, m := range ix.memsLocked() {
			for doc, fp := range m.postings[t] {
				if fields == nil {
					set[doc] = struct{}{}
					continue
				}
				for _, r := range fp {
					if fields[r.field] {
						set[doc] = struct{}{}
						break
					}
				}
			}
		}
		for _, s := range ix.segs {
			tid, ok := s.tid(t)
			if !ok {
				continue
			}
			if fields == nil {
				for _, doc := range s.docList(tid) {
					set[doc] = struct{}{}
				}
				continue
			}
			for _, doc := range s.docListInFields(tid, fields) {
				set[doc] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// DocsWithAny returns the ids of documents containing at least one of the
// given stemmed terms, sorted.
func (ix *Index) DocsWithAny(terms []string) []string {
	return ix.DocsWithAnyInFields(terms, nil)
}

// MinPairDistance returns the smallest token distance in doc between any
// occurrence of term a and any occurrence of term b within the same
// field, or -1 when they never co-occur in a field. Rankers use this as
// the proximity feature.
func (ix *Index) MinPairDistance(docID, a, b string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	fpA := ix.fieldPositionsLocked(a, docID)
	if len(fpA) == 0 {
		return -1
	}
	fpB := ix.fieldPositionsLocked(b, docID)
	if len(fpB) == 0 {
		return -1
	}
	best := -1
	for field, posA := range fpA {
		posB, ok := fpB[field]
		if !ok {
			continue
		}
		d := minListDistance(posA, posB)
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

// minListDistance computes the minimum absolute difference between any
// element of two sorted int lists in O(n+m).
func minListDistance(a, b []int) int {
	i, j := 0, 0
	best := math.MaxInt
	for i < len(a) && j < len(b) {
		d := a[i] - b[j]
		if d < 0 {
			d = -d
		}
		if d < best {
			best = d
		}
		if a[i] < b[j] {
			i++
		} else {
			j++
		}
	}
	return best
}

// Terms returns every term with at least one live posting, sorted;
// used by vocabulary tooling.
func (ix *Index) Terms() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	set := map[string]struct{}{}
	for _, m := range ix.memsLocked() {
		for t := range m.postings {
			set[t] = struct{}{}
		}
	}
	for _, s := range ix.segs {
		for tid, term := range s.terms {
			if s.liveDF(tid) > 0 {
				set[term] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// FieldsOf returns the fields of doc that contain term, sorted.
func (ix *Index) FieldsOf(docID, term string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	fp := ix.fieldPositionsLocked(term, docID)
	if len(fp) == 0 {
		return nil
	}
	out := make([]string, 0, len(fp))
	for field := range fp {
		out = append(out, field)
	}
	sort.Strings(out)
	return out
}
