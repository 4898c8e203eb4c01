package index

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// fieldRun holds the positions of one term in one field of one document.
type fieldRun struct {
	field string
	pos   []int
}

// fieldPostings is the per-field position runs of one (term, doc) pair,
// in first-seen field order. A term posts in one or two of a document's
// six fields, so a linear scan over a small slice beats a map.
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

// termRec is everything the memtable keeps for one term: the documents
// posting it with their runs, its score bounds and the flattened memo a
// cursor reads. One record per term, one map lookup per term written.
type termRec struct {
	term string
	// ids are the documents holding the term, docs[j] the runs of ids[j].
	// An append out of id order marks the record dirty; flat sorts a
	// copy. ids is appended to or replaced, never rewritten, so snapshot
	// holders reading an older header stay valid.
	ids   []string
	docs  []fieldPostings
	dirty bool
	// maxWTF / maxRaw are monotone maxima of Σ_field tf·weight and
	// Σ_field tf over any single document. Writes raise them; removal
	// leaves them (a stale-high maximum is still a valid upper bound for
	// max-score pruning).
	maxWTF float64
	maxRaw int
	// flat memoizes memtable.flat: built by the first reader after a
	// write to the term, dropped by the next write. Atomic because
	// readers store it under the shared lock.
	flat atomic.Pointer[memPostings]
}

// touch drops the memoized flat postings; every write to the term (or to
// the static score of a document holding it) calls it.
func (r *termRec) touch() {
	if r.flat.Load() != nil {
		r.flat.Store(nil)
	}
}

// find returns the slot of docID in the record, -1 when it does not post.
func (r *termRec) find(docID string) int {
	if n := len(r.ids); n > 0 && r.ids[n-1] == docID {
		return n - 1
	}
	if r.dirty {
		return slices.Index(r.ids, docID)
	}
	if j := sort.SearchStrings(r.ids, docID); j < len(r.ids) && r.ids[j] == docID {
		return j
	}
	return -1
}

// push appends a document new to the term.
func (r *termRec) push(docID string, fp fieldPostings) {
	if !r.dirty && len(r.ids) > 0 && r.ids[len(r.ids)-1] >= docID {
		r.dirty = true
	}
	r.ids = append(r.ids, docID)
	r.docs = append(r.docs, fp)
}

// raise lifts the term's bounds to one document's runs.
func (r *termRec) raise(fp fieldPostings, weights map[string]float64) {
	raw := 0
	wtf := 0.0
	for _, run := range fp {
		raw += len(run.pos)
		wtf += float64(len(run.pos)) * fieldWeight(weights, run.field)
	}
	r.maxRaw = max(r.maxRaw, raw)
	r.maxWTF = max(r.maxWTF, wtf)
}

// fieldLen is the token count of one field of one document.
type fieldLen struct {
	field string
	n     int
}

// docRec is what the memtable keeps per document.
type docRec struct {
	terms  []*termRec // the terms it posts for, each once, for removal
	fields []fieldLen // first-seen order; texts without tokens included
	static float64    // query-independent score component (recency)
}

// fieldLen returns the document's token count in field.
func (d *docRec) fieldLen(field string) int {
	for _, f := range d.fields {
		if f.field == field {
			return f.n
		}
	}
	return 0
}

// growField adds n tokens to the document's length in field.
func (d *docRec) growField(field string, n int) {
	if i := slices.IndexFunc(d.fields, func(f fieldLen) bool { return f.field == field }); i >= 0 {
		d.fields[i].n += n
	} else {
		d.fields = append(d.fields, fieldLen{field, n})
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

// memtable is the mutable in-memory write buffer of the index: one
// record per term and one per document. It is also the only form a
// segment is built from — a frozen memtable when sealing, the decoded
// union of the inputs when merging. It carries no lock of its own —
// every access is guarded by the owning Index's mutex. Once a memtable
// is frozen for sealing it is never mutated again, so the seal builder
// can read it without synchronization.
type memtable struct {
	terms map[string]*termRec
	docs  map[string]*docRec
}

func newMemtable() *memtable {
	return &memtable{terms: map[string]*termRec{}, docs: map[string]*docRec{}}
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

// recomputeBounds rebuilds every per-term maximum under new weights.
func (m *memtable) recomputeBounds(weights map[string]float64) {
	for _, r := range m.terms {
		r.maxWTF, r.maxRaw = 0, 0
		for _, fp := range r.docs {
			r.raise(fp, weights)
		}
	}
}

// add applies one document's analysis and returns its record: per
// distinct term one lookup, one append, one bound update and the memo
// dropped. base(field) is where the document's positions in field
// continue from; nil when the document holds no tokens anywhere yet.
func (m *memtable) add(docID string, a *Analyzed, base func(field string) int, weights map[string]float64) *docRec {
	d := m.docs[docID]
	fresh := d == nil
	if fresh {
		d = &docRec{terms: make([]*termRec, 0, len(a.terms))}
		m.docs[docID] = d
	}
	for i := 0; base != nil && i < len(a.runs); i++ {
		b := base(a.runs[i].field)
		for k := range a.runs[i].pos {
			a.runs[i].pos[k] += b
		}
	}
	for _, f := range a.fields {
		d.growField(f.field, f.n)
	}
	for i, term := range a.terms {
		runs := fieldPostings(a.runs[a.off[i]:a.off[i+1]:a.off[i+1]])
		r := m.terms[term]
		if r == nil {
			r = &termRec{term: term}
			m.terms[term] = r
		}
		j := -1
		if !fresh {
			j = r.find(docID)
		}
		if j < 0 {
			r.push(docID, runs)
			d.terms = append(d.terms, r)
		} else {
			for _, run := range runs {
				r.docs[j] = r.docs[j].appendTo(run.field, run.pos...)
			}
			runs = r.docs[j]
		}
		r.raise(runs, weights)
		r.touch()
	}
	return d
}

// remove deletes every posting of doc and reports the affected terms
// (nil when the doc was not present). Per-term maxima are deliberately
// left as-is: monotone maxima remain valid upper bounds.
func (m *memtable) remove(docID string) []string {
	d, ok := m.docs[docID]
	if !ok {
		return nil
	}
	terms := make([]string, len(d.terms))
	for i, r := range d.terms {
		terms[i] = r.term
		if len(r.ids) == 1 {
			delete(m.terms, r.term)
			continue
		}
		j := r.find(docID)
		r.ids = slices.Delete(slices.Clone(r.ids), j, j+1) // snapshots hold the old ids
		r.docs = slices.Delete(r.docs, j, j+1)
		r.touch()
	}
	delete(m.docs, docID)
	return terms
}

// flat returns the record's postings flattened for a cursor, ids
// ascending, memoized until the next write to the term. A dirty record
// is sorted into the memo, never in place: the owning Index's read lock
// suffices, and a frozen memtable's records stay as its seal builder
// reads them.
func (m *memtable) flat(r *termRec) *memPostings {
	if mp := r.flat.Load(); mp != nil {
		return mp
	}
	var perm []int32
	ids := r.ids
	if r.dirty {
		perm = make([]int32, len(r.ids))
		for j := range perm {
			perm[j] = int32(j)
		}
		slices.SortFunc(perm, func(a, b int32) int { return strings.Compare(r.ids[a], r.ids[b]) })
		ids = make([]string, len(perm))
		for j, p := range perm {
			ids[j] = r.ids[p]
		}
	}
	mp := &memPostings{
		ids:    ids,
		off:    make([]int32, 0, len(ids)+1),
		runs:   make([]Run, 0, len(ids)+len(ids)/2),
		static: make([]float64, 0, len(ids)),
	}
	for j, doc := range ids {
		fp := r.docs[j]
		if perm != nil {
			fp = r.docs[perm[j]]
		}
		first := len(mp.runs)
		mp.off = append(mp.off, int32(first))
		for _, run := range fp {
			mp.runs = append(mp.runs, Run{run.field, run.pos})
			for k := len(mp.runs) - 1; k > first && mp.runs[k].Field < mp.runs[k-1].Field; k-- {
				mp.runs[k], mp.runs[k-1] = mp.runs[k-1], mp.runs[k]
			}
		}
		mp.static = append(mp.static, m.docs[doc].static)
	}
	mp.off = append(mp.off, int32(len(mp.runs)))
	r.flat.Store(mp)
	return mp
}
