package index

import (
	"sort"
	"sync/atomic"
)

// fieldKey identifies a (document, field) pair.
type fieldKey struct {
	doc   string
	field string
}

// fieldRun holds the positions of one term in one field of one document.
type fieldRun struct {
	field string
	pos   []int
}

// fieldPostings is the per-field position runs of one (term, doc) pair,
// in first-seen field order. A term posts in one or two of a document's
// six fields, so a linear scan over a small slice beats a map — and a
// map here cost most of the memtable's memory: one hash table per
// (term, doc) pair, 64 KB of heap per CORD-19-shaped document against
// 30 KB as runs (search.TestMemtableHeapPerDoc).
type fieldPostings []fieldRun

// appendTo returns fp with pos appended to field's run, adding the run
// when the field is new.
func (fp fieldPostings) appendTo(field string, pos ...int) fieldPostings {
	for i := range fp {
		if fp[i].field == field {
			fp[i].pos = append(fp[i].pos, pos...)
			return fp
		}
	}
	return append(fp, fieldRun{field, append([]int(nil), pos...)})
}

// termList is a per-term, lazily sorted list of the doc ids holding the
// term. Appends in ascending id order (the common case: generated ids
// are monotone) keep the list clean; out-of-order inserts and removals
// mark it dirty and it is rebuilt from the postings map on the next
// snapshot. Rebuilds replace the slice, so snapshot holders reading an
// older header stay valid.
type termList struct {
	ids   []string
	dirty bool
	// flat memoizes memtable.flat: built by the first reader after a
	// write to the term, dropped by the next write. Atomic because
	// readers store it under the shared lock.
	flat atomic.Pointer[memPostings]
}

// touch drops the memoized flat postings; every write to the term (or to
// the static score of a document holding it) calls it.
func (tl *termList) touch() {
	if tl.flat.Load() != nil {
		tl.flat.Store(nil)
	}
}

// memPostings is one term's memtable postings flattened for a cursor:
// ids ascending, runs[off[j]:off[j+1]] the runs of ids[j] in field-name
// order, static[j] its document's static score. Immutable — the memtable
// rewrites run headers and static scores in place under the write lock,
// and a cursor reads without it.
type memPostings struct {
	ids    []string
	off    []int32
	runs   []Run
	static []float64
}

// memtable is the mutable in-memory write buffer of the index: a
// term → doc map of maps whose values are fieldPostings (a short slice
// of per-field position runs, not a third map level), plus the
// incrementally-maintained per-term partials (sorted posting list,
// max weighted/raw TF) the top-k scorer consumes. It carries no lock of
// its own — every access is guarded by the owning Index's mutex. Once a
// memtable is frozen for sealing it is never mutated again, so the seal
// builder can read it without synchronization.
type memtable struct {
	// postings: term -> doc -> per-field position runs
	postings map[string]map[string]fieldPostings
	// docTerms: doc -> the terms it posts for, each once, for removal
	docTerms map[string][]string
	// fieldLen: (doc, field) -> token count, for normalization
	fieldLen map[fieldKey]int
	docs     map[string]struct{}

	// termDocs: term -> lazily sorted doc ids (the posting list the
	// top-k merge iterates).
	termDocs map[string]*termList
	// maxWTF / maxRaw: term -> monotone maxima of Σ_field tf·weight and
	// Σ_field tf over any single document. Add raises them; Remove
	// leaves them untouched (a stale-high maximum is still a valid
	// upper bound for max-score pruning).
	maxWTF map[string]float64
	maxRaw map[string]int
	// static: doc -> query-independent score component (recency).
	static map[string]float64

	// lastDoc is the most recently added document id: the seal trigger
	// only fires at a document boundary so one doc's postings never
	// straddle the memtable/segment line.
	lastDoc string
	// tokens counts indexed content tokens, a cheap size heuristic.
	tokens int
}

func newMemtable() *memtable {
	return &memtable{
		postings: map[string]map[string]fieldPostings{},
		docTerms: map[string][]string{},
		fieldLen: map[fieldKey]int{},
		docs:     map[string]struct{}{},
		termDocs: map[string]*termList{},
		maxWTF:   map[string]float64{},
		maxRaw:   map[string]int{},
		static:   map[string]float64{},
	}
}

func fieldWeight(weights map[string]float64, field string) float64 {
	if weights == nil {
		return 1
	}
	if w, ok := weights[field]; ok {
		return w
	}
	return 1
}

// refreshBounds recomputes one (term, doc) weighted/raw TF partial and
// raises the term's maxima if it exceeds them.
func (m *memtable) refreshBounds(term, docID string, weights map[string]float64) {
	fp := m.postings[term][docID]
	raw := 0
	wtf := 0.0
	for _, r := range fp {
		raw += len(r.pos)
		wtf += float64(len(r.pos)) * fieldWeight(weights, r.field)
	}
	if raw > m.maxRaw[term] {
		m.maxRaw[term] = raw
	}
	if wtf > m.maxWTF[term] {
		m.maxWTF[term] = wtf
	}
}

// recomputeBounds rebuilds every per-term maximum under new weights.
func (m *memtable) recomputeBounds(weights map[string]float64) {
	m.maxWTF = make(map[string]float64, len(m.postings))
	m.maxRaw = make(map[string]int, len(m.postings))
	for term, byDoc := range m.postings {
		for docID := range byDoc {
			m.refreshBounds(term, docID, weights)
		}
	}
}

// add indexes already-stemmed terms as one contiguous run of the given
// field, with positions starting at base.
func (m *memtable) add(docID, field string, terms []string, base int, weights map[string]float64) {
	m.docs[docID] = struct{}{}
	fk := fieldKey{docID, field}
	m.fieldLen[fk] += len(terms)
	m.tokens += len(terms)
	docTerms := m.docTerms[docID]
	touched := map[string]struct{}{}
	for i, term := range terms {
		byDoc := m.postings[term]
		if byDoc == nil {
			byDoc = map[string]fieldPostings{}
			m.postings[term] = byDoc
		}
		fp, posted := byDoc[docID]
		if !posted {
			m.noteTermDoc(term, docID)
			docTerms = append(docTerms, term)
		}
		if grown := fp.appendTo(field, base+i); len(grown) != len(fp) {
			byDoc[docID] = grown // a new run moved the slice header
		}
		touched[term] = struct{}{}
	}
	m.docTerms[docID] = docTerms
	for term := range touched {
		m.refreshBounds(term, docID, weights)
		m.termDocs[term].touch()
	}
	m.lastDoc = docID
}

// noteTermDoc appends a newly-posting doc to the term's posting list,
// keeping the sorted invariant when ids arrive in order and marking the
// list dirty otherwise.
func (m *memtable) noteTermDoc(term, docID string) {
	tl := m.termDocs[term]
	if tl == nil {
		tl = &termList{}
		m.termDocs[term] = tl
	}
	if !tl.dirty && len(tl.ids) > 0 && tl.ids[len(tl.ids)-1] >= docID {
		tl.dirty = true
	}
	tl.ids = append(tl.ids, docID)
}

// remove deletes every posting of doc and reports the affected terms
// (nil when the doc was not present). Per-term maxima are deliberately
// left as-is: monotone maxima remain valid upper bounds.
func (m *memtable) remove(docID string) []string {
	terms, ok := m.docTerms[docID]
	if !ok {
		return nil
	}
	for _, term := range terms {
		byDoc := m.postings[term]
		delete(byDoc, docID)
		if len(byDoc) == 0 {
			delete(m.postings, term)
			delete(m.termDocs, term)
			delete(m.maxWTF, term)
			delete(m.maxRaw, term)
		} else if tl := m.termDocs[term]; tl != nil {
			tl.dirty = true
			tl.touch()
		}
	}
	delete(m.docTerms, docID)
	for fk := range m.fieldLen {
		if fk.doc == docID {
			delete(m.fieldLen, fk)
		}
	}
	delete(m.docs, docID)
	delete(m.static, docID)
	return terms
}

// setStatic records a document's static score.
func (m *memtable) setStatic(docID string, v float64) {
	m.static[docID] = v
	for _, term := range m.docTerms[docID] {
		m.termDocs[term].touch()
	}
}

// flat returns the term's postings flattened for a cursor, memoized
// until the next write to the term. The term's list must be clean (see
// docList) and non-empty; the owning Index's read lock suffices.
func (m *memtable) flat(term string) *memPostings {
	tl := m.termDocs[term]
	if mp := tl.flat.Load(); mp != nil {
		return mp
	}
	byDoc := m.postings[term]
	mp := &memPostings{
		ids:    tl.ids,
		off:    make([]int32, 0, len(tl.ids)+1),
		runs:   make([]Run, 0, len(tl.ids)+len(tl.ids)/2),
		static: make([]float64, 0, len(tl.ids)),
	}
	for _, doc := range mp.ids {
		first := len(mp.runs)
		mp.off = append(mp.off, int32(first))
		for _, r := range byDoc[doc] {
			mp.runs = append(mp.runs, Run{r.field, r.pos})
			for k := len(mp.runs) - 1; k > first && mp.runs[k].Field < mp.runs[k-1].Field; k-- {
				mp.runs[k], mp.runs[k-1] = mp.runs[k-1], mp.runs[k]
			}
		}
		mp.static = append(mp.static, m.static[doc])
	}
	mp.off = append(mp.off, int32(len(mp.runs)))
	tl.flat.Store(mp)
	return mp
}

// docList returns the term's sorted live doc ids, rebuilding the lazy
// list if dirty — which requires the owning Index's write lock (it swaps
// the backing slice); a clean list is read under the read lock.
func (m *memtable) docList(term string) []string {
	tl := m.termDocs[term]
	if tl == nil {
		return nil
	}
	if tl.dirty {
		ids := make([]string, 0, len(m.postings[term]))
		for docID := range m.postings[term] {
			ids = append(ids, docID)
		}
		sort.Strings(ids)
		tl.ids = ids
		tl.dirty = false
	}
	return tl.ids
}
