package index

import "sort"

// Run is the occurrences of one name in one field of the cursor's
// current document. Pos is ascending and must not be modified.
type Run struct {
	Field string
	Pos   []int
}

// cursorPart is one name's postings inside one part of the index — a
// memtable or a segment — as captured at snapshot time. Everything it
// references is immutable, so a cursor reads it without the index lock:
// a segment's posting entries and live-id list, and the flattened copy a
// memtable keeps of a term's postings, are replaced, never rewritten.
type cursorPart struct {
	ids []string // live doc ids holding the name, ascending
	// A segment part: ents[j] is ids[j]'s posting entry and fields the
	// segment's field dictionary. A memtable part (ents == nil):
	// runs[off[j]:off[j+1]] are ids[j]'s runs in field-name order.
	ents   []segEntry
	fields []string
	off    []int32
	runs   []Run
	static []float64 // indexed by segment ordinal when byOrd, else aligned with ids
	byOrd  bool
}

// cursorName is one name's statistics; its parts are snapshot.parts[lo:hi].
type cursorName struct {
	lo, hi int
	df     int
	maxWTF float64
	maxRaw int
}

// snapshot is a point-in-time view of the postings of a set of names,
// shared by every cursor forked from the one that took it.
type snapshot struct {
	n     int // live documents in the index
	names []cursorName
	parts []cursorPart
}

// snapshot captures the names' postings under one read-lock acquisition.
//
// Per-part score bounds combine by max when every document lives in
// exactly one part (the normal case — the seal boundary keeps documents
// whole), and by sum when any document's postings span parts (re-added
// ids), so a name's bound is always a valid upper bound.
func (ix *Index) snapshot(names []string) *snapshot {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	mems := ix.memsLocked()
	s := &snapshot{n: ix.docCountLocked(), names: make([]cursorName, len(names)),
		parts: make([]cursorPart, 0, len(names)*(len(mems)+len(ix.segs)))}
	for i, name := range names {
		cn := cursorName{lo: len(s.parts), df: ix.docFreqLocked(name)}
		add := func(p cursorPart, maxWTF float64, maxRaw int) {
			if ix.crossSource {
				// a document's static score may sit in another part
				p.static, p.byOrd = make([]float64, len(p.ids)), false
				for j, doc := range p.ids {
					p.static[j] = ix.staticLocked(doc)
				}
				cn.maxWTF, cn.maxRaw = cn.maxWTF+maxWTF, cn.maxRaw+maxRaw
			} else {
				cn.maxWTF, cn.maxRaw = max(cn.maxWTF, maxWTF), max(cn.maxRaw, maxRaw)
			}
			s.parts = append(s.parts, p)
		}
		for _, m := range mems {
			if r := m.terms[name]; r != nil {
				mp := m.flat(r)
				add(cursorPart{ids: mp.ids, off: mp.off, runs: mp.runs, static: mp.static}, r.maxWTF, r.maxRaw)
			}
		}
		for _, seg := range ix.segs {
			if t, ok := seg.tid(name); ok && seg.liveDF(t) > 0 {
				ll := seg.live(t)
				add(cursorPart{ids: ll.ids, ents: ll.ents, fields: seg.fields, static: seg.static, byOrd: true},
					seg.posts[t].maxWTF, seg.posts[t].maxRaw)
			}
		}
		cn.hi = len(s.parts)
		s.names[i] = cn
	}
	return s
}

// Cursor walks the postings of a fixed set of names document-at-a-time
// over one snapshot of the index. Taking it is the only time the index
// lock is held; document frequencies and the corpus size are captured
// then, so every IDF a query derives — in a pruning bound or in a score
// — is the same number however the index moves meanwhile. A cursor is
// not safe for concurrent use; Fork gives each goroutine its own.
type Cursor struct {
	snap *snapshot
	pos  []int  // per part: index of the first id not yet passed
	at   []bool // per part: ids[pos] is the current document
	cur  string
	done bool  // Next ran off the end
	buf  []Run // backs the runs gathered from segment parts for the current document
}

// Cursor snapshots the postings of names (stemmed terms).
func (ix *Index) Cursor(names []string) *Cursor { return newCursor(ix.snapshot(names)) }

func newCursor(s *snapshot) *Cursor {
	return &Cursor{snap: s, pos: make([]int, len(s.parts)), at: make([]bool, len(s.parts))}
}

// Fork returns an independent cursor over the same snapshot, positioned
// before the first document.
func (c *Cursor) Fork() *Cursor { return newCursor(c.snap) }

// IDF is name i's inverse document frequency as of the snapshot. MaxWTF
// is an upper bound of Σ_field tf·fieldWeight of name i over any single
// document, MaxRaw the same of the unweighted term frequency: memtable
// contributions are monotone (removals never lower them, so they can be
// stale-high but never stale-low), segment contributions exact at seal
// time and only conservative as tombstones land.
func (c *Cursor) IDF(i int) float64    { return idf(c.snap.n, c.snap.names[i].df) }
func (c *Cursor) MaxWTF(i int) float64 { return c.snap.names[i].maxWTF }
func (c *Cursor) MaxRaw(i int) int     { return c.snap.names[i].maxRaw }

// MaxDocs bounds how many documents Next can yield.
func (c *Cursor) MaxDocs() int {
	n := 0
	for i := range c.snap.parts {
		n += len(c.snap.parts[i].ids)
	}
	return min(n, c.snap.n)
}

// Next advances to the next document, ascending, that holds any of the
// names.
func (c *Cursor) Next() (string, bool) {
	parts := c.snap.parts
	best := -1
	for p := range parts {
		if c.at[p] {
			c.pos[p]++
		}
		if c.pos[p] < len(parts[p].ids) && (best < 0 || parts[p].ids[c.pos[p]] < parts[best].ids[c.pos[best]]) {
			best = p
		}
	}
	if best < 0 {
		clear(c.at)
		c.done = true
		return "", false
	}
	doc := parts[best].ids[c.pos[best]]
	for p := range parts {
		c.at[p] = c.pos[p] < len(parts[p].ids) && parts[p].ids[c.pos[p]] == doc
	}
	c.cur, c.buf = doc, c.buf[:0]
	return doc, true
}

// Seek positions the cursor on doc and reports whether any name posts
// for it. Ascending seeks traverse every list once; a seek backwards
// starts over.
func (c *Cursor) Seek(doc string) bool {
	if c.done || doc < c.cur {
		clear(c.pos)
		c.done = false
	}
	hit := false
	for p := range c.snap.parts {
		ids, i := c.snap.parts[p].ids, c.pos[p]
		if i < len(ids) && ids[i] < doc {
			if i++; i < len(ids) && ids[i] < doc {
				i += sort.SearchStrings(ids[i:], doc)
			}
			c.pos[p] = i
		}
		c.at[p] = i < len(ids) && ids[i] == doc
		hit = hit || c.at[p]
	}
	c.cur, c.buf = doc, c.buf[:0]
	return hit
}

// Has reports whether name i posts for the current document.
func (c *Cursor) Has(i int) bool {
	for p := c.snap.names[i].lo; p < c.snap.names[i].hi; p++ {
		if c.at[p] {
			return true
		}
	}
	return false
}

// Runs returns name i's runs in the current document — field-name
// order, positions ascending — nil when it does not post there. The
// slice is valid until the cursor moves.
func (c *Cursor) Runs(i int) []Run {
	var out []Run
	spans := false
	for p := c.snap.names[i].lo; p < c.snap.names[i].hi; p++ {
		if !c.at[p] {
			continue
		}
		part, j := &c.snap.parts[p], c.pos[p]
		var runs []Run
		if part.ents == nil {
			runs = part.runs[part.off[j]:part.off[j+1]]
		} else {
			start := len(c.buf)
			for _, f := range part.ents[j].fields {
				c.buf = append(c.buf, Run{part.fields[f.fieldID], f.pos})
			}
			runs = c.buf[start:len(c.buf):len(c.buf)]
		}
		if out == nil {
			out = runs
			continue
		}
		if !spans { // a re-added id: its postings span parts
			out, spans = append([]Run(nil), out...), true
		}
		out = append(out, runs...)
	}
	if spans {
		out = coalesceRuns(out)
	}
	return out
}

// coalesceRuns merges the runs several parts hold for one (name,
// document) into one run per field. Positions from distinct parts occupy
// distinct ranges — Add continues them across seals — but part order
// need not be position order, so a merged field is re-sorted.
func coalesceRuns(runs []Run) []Run {
	sort.SliceStable(runs, func(a, b int) bool { return runs[a].Field < runs[b].Field })
	out := runs[:1]
	for _, r := range runs[1:] {
		last := &out[len(out)-1]
		if r.Field != last.Field {
			out = append(out, r)
			continue
		}
		last.Pos = append(append([]int(nil), last.Pos...), r.Pos...) // never into the index's own array
		sort.Ints(last.Pos)
	}
	return out
}

// Static returns the current document's query-independent score, zero
// when no name posts for it.
func (c *Cursor) Static() float64 {
	for p := range c.snap.parts {
		if !c.at[p] {
			continue
		}
		part, j := &c.snap.parts[p], c.pos[p]
		if part.byOrd {
			return part.static[part.ents[j].ord]
		}
		return part.static[j]
	}
	return 0
}

// TermSnapshot is a point-in-time view of one term's posting list plus
// its max-score partials (see Cursor.MaxWTF). Docs is sorted ascending
// and immutable: a single part's own slice (memtable lists only append
// past the snapshot's length or swap in a fresh slice; segment lists
// never change), or a fresh merge of several.
type TermSnapshot struct {
	Term   string
	Docs   []string
	MaxWTF float64
	MaxRaw int
}

// TermSnapshots returns one snapshot per requested term — a cursor
// snapshot's lists and bounds. Terms absent from the index yield empty
// snapshots.
func (ix *Index) TermSnapshots(terms []string) []TermSnapshot {
	s := ix.snapshot(terms)
	out := make([]TermSnapshot, len(terms))
	for i, term := range terms {
		cn := s.names[i]
		out[i] = TermSnapshot{Term: term, MaxWTF: cn.maxWTF, MaxRaw: cn.maxRaw}
		if parts := s.parts[cn.lo:cn.hi]; len(parts) == 1 {
			out[i].Docs = parts[0].ids
		} else if len(parts) > 1 {
			out[i].Docs = newCursor(&snapshot{n: s.n, parts: parts}).docs()
		}
	}
	return out
}

// DocsWithAny returns the sorted ids of documents holding any of the
// given stemmed terms: a cursor's documents.
func (ix *Index) DocsWithAny(terms []string) []string {
	return newCursor(ix.snapshot(terms)).docs()
}

// docs drains the cursor: every remaining document, ascending.
func (c *Cursor) docs() []string {
	out := make([]string, 0, c.MaxDocs())
	for doc, ok := c.Next(); ok; doc, ok = c.Next() {
		out = append(out, doc)
	}
	return out
}
