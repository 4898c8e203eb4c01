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
	"slices"
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
	// cond signals seal/merge completion (waiters: Remove, Seal,
	// Compact, SetFieldWeights).
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

// Static returns the document's query-independent score component
// (zero when never set).
func (ix *Index) Static(docID string) float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.staticLocked(docID)
}

func (ix *Index) staticLocked(docID string) float64 {
	for _, m := range ix.memsLocked() {
		if d, ok := m.docs[docID]; ok {
			return d.static
		}
	}
	for _, s := range ix.segs {
		if ord, ok := s.ordOf(docID); ok && !s.dead[ord] {
			return s.static[ord]
		}
	}
	return 0
}

// FieldText is one text of a document and the field it is indexed as.
type FieldText struct{ Field, Text string }

// Analyzed is one document tokenized, stemmed and grouped by term: the
// pure half of indexing, done before the index lock is taken. AddDoc
// takes ownership of it, so analyse a document once per index.
type Analyzed struct {
	terms  []string   // distinct, in first-appearance order
	off    []int32    // terms[i]'s runs are runs[off[i]:off[i+1]]
	runs   []fieldRun // each term's runs in first-seen field order
	fields []fieldLen // token count per field, first-seen order
}

// Analyze tokenizes and stems texts in order and groups the tokens by
// term. Positions continue per field from one text to the next, exactly
// as successive Add calls would number them, and are carved from one
// exact-size slab. A text without content words still records its field.
func Analyze(texts []FieldText) *Analyzed {
	type tok struct{ term, field, pos int32 }
	a := &Analyzed{}
	var toks []tok
	termOf := map[string]int32{}
	for _, ft := range texts {
		f := slices.IndexFunc(a.fields, func(g fieldLen) bool { return g.field == ft.Field })
		if f < 0 {
			f = len(a.fields)
			a.fields = append(a.fields, fieldLen{field: ft.Field})
		}
		for _, w := range textproc.ContentWords(ft.Text) {
			t, ok := termOf[w]
			if !ok {
				t = int32(len(a.terms))
				termOf[w] = t
				a.terms = append(a.terms, w)
			}
			toks = append(toks, tok{t, int32(f), int32(a.fields[f].n)})
			a.fields[f].n++
		}
	}

	// Number each term's runs in first-seen field order: runOf holds
	// 1 + the run's index within its term, per (term, field).
	nf := len(a.fields)
	runOf := make([]int32, len(a.terms)*nf)
	a.off = make([]int32, len(a.terms)+1)
	for _, k := range toks {
		if r := &runOf[int(k.term)*nf+int(k.field)]; *r == 0 {
			a.off[k.term+1]++
			*r = a.off[k.term+1]
		}
	}
	for i := range a.terms {
		a.off[i+1] += a.off[i]
	}
	run := func(k tok) int { return int(a.off[k.term] + runOf[int(k.term)*nf+int(k.field)] - 1) }

	// Size every run, carve it from the slab with exact capacity, fill.
	a.runs = make([]fieldRun, a.off[len(a.terms)])
	size := make([]int, len(a.runs))
	for _, k := range toks {
		size[run(k)]++
	}
	slab := make([]int, len(toks))
	for g := range a.runs {
		a.runs[g].pos, slab = slab[:0:size[g]], slab[size[g]:]
	}
	for _, k := range toks {
		r := &a.runs[run(k)]
		r.field = a.fields[k.field].field
		r.pos = append(r.pos, int(k.pos))
	}
	return a
}

// AddDoc indexes an analysed document and its static (query-independent)
// score in one critical section — one seal check; per distinct term one
// lookup, append, bound update and write generation — so readers see
// both or neither. Re-adding an id appends after its earlier positions.
// Crossing the seal threshold seals the memtable in the background.
func (ix *Index) AddDoc(docID string, a *Analyzed, static float64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.addLocked(docID, a, &static)
}

// Add indexes text as the given field of doc: AddDoc of a one-text
// analysis that leaves the document's static score as it was.
func (ix *Index) Add(docID, field, text string) {
	a := Analyze([]FieldText{{field, text}})
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.addLocked(docID, a, nil)
}

// addLocked applies a to docID and sets its static score (nil keeps it).
func (ix *Index) addLocked(docID string, a *Analyzed, static *float64) {
	prev, inMem := ix.mem.docs[docID]
	if !inMem {
		// First touch of the document in this memtable: the only point a
		// seal may trigger (so one doc's postings never straddle the
		// boundary), and the point to detect a re-add of a sealed id.
		if ix.sealDocs > 0 && ix.sealing == nil && len(ix.mem.docs) >= ix.sealDocs {
			ix.freezeLocked()
		}
		if !ix.crossSource && ix.partOtherThanMemHas(docID) {
			ix.crossSource = true
		}
		if static == nil && ix.crossSource {
			s := ix.staticLocked(docID) // the sealed copy's
			static = &s
		}
	}
	var base func(string) int
	switch {
	case ix.crossSource:
		base = func(field string) int { return ix.fieldLenLocked(docID, field) }
	case inMem:
		base = prev.fieldLen
	}
	d := ix.mem.add(docID, a, base, ix.weights)
	ix.seq++
	if static != nil {
		d.static = *static
		if inMem { // the score changes on every term the doc holds
			for _, r := range d.terms {
				r.touch()
				ix.termGens[r.term] = ix.seq
			}
		}
	}
	for _, t := range a.terms {
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
		if d, ok := m.docs[docID]; ok {
			n += d.fieldLen(field)
		}
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
// AddDoc/Remove). Cached pages with unbounded term scope revalidate
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

// LiveIDs returns the set of indexed document ids.
func (ix *Index) LiveIDs() map[string]bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ids := make(map[string]bool, ix.docCountLocked())
	for _, m := range ix.memsLocked() {
		for id := range m.docs {
			ids[id] = true
		}
	}
	for _, s := range ix.segs {
		for ord, id := range s.docIDs {
			if !s.dead[ord] {
				ids[id] = true
			}
		}
	}
	return ids
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
		if r, ok := m.terms[term]; ok {
			n += len(r.ids)
		}
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
		if r, ok := m.terms[term]; ok {
			for j, doc := range r.ids {
				for _, run := range r.docs[j] {
					add(doc, run.field, run.pos)
				}
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
