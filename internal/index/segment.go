package index

import (
	"encoding/binary"
	"slices"
	"sort"
	"sync"
)

// blockEntries is the posting-list block size: within a block, doc
// ordinals are delta-varint encoded, and the block boundary table lets
// lookups binary-search to the right block and decode at most this many
// entries. 64 keeps blocks small enough for cheap random access while
// amortizing the boundary table to one entry per 64 postings.
const blockEntries = 64

// postingList is one term's compressed postings inside a segment:
// per-doc entries (ordinal, then per-field positions), delta-varint
// encoded in blocks of blockEntries. df, maxWTF and maxRaw are exact at
// seal time (tombstones later lower the true values, which only makes
// the recorded maxima conservative — still valid upper bounds for
// max-score pruning).
type postingList struct {
	df     int
	maxWTF float64
	maxRaw int

	// blockOff[i] is the byte offset of block i in data; blockLast[i]
	// is the largest doc ordinal in block i (the binary-search key).
	blockOff  []uint32
	blockLast []uint32
	data      []byte
}

// segEntry is one decoded posting entry: the occurrences of a term in
// one document, by field.
type segEntry struct {
	ord    int
	fields []segField
}

type segField struct {
	fieldID int
	pos     []int
}

// segment is an immutable sealed run of documents. Everything except
// the tombstone state (dead/deadN/delDF) is frozen at build time;
// tombstones are applied in place under the owning Index's write lock.
// docIDs is sorted, and a document's ordinal (its index in docIDs) is
// the id used throughout the encoded postings.
type segment struct {
	id     uint64
	docIDs []string // sorted; ordinal = position
	fields []string // field dictionary, sorted
	fieldN map[string]int

	// fieldLen[ord*len(fields)+fid] = token count of that (doc, field).
	fieldLen []uint32
	// static[ord] = query-independent score.
	static []float64

	terms []string // sorted term dictionary
	termN map[string]int
	posts []postingList

	// ordTerms[ord] = sorted term ids posting for that doc; drives
	// tombstone bookkeeping (delDF, memo invalidation) on Remove.
	ordTerms [][]int32

	// Tombstones, guarded by Index.mu.
	dead  []bool
	deadN int
	// delDF[tid] = tombstoned docs per term, so live docFreq stays O(1).
	delDF []int32

	// decoded memoizes per-term live postings (tid → *liveList).
	// sync.Map so read-locked query paths can populate it concurrently;
	// entries are invalidated when a tombstone lands on the term.
	decoded sync.Map

	// entMemo memoizes per-term decoded posting entries (tid →
	// []segEntry, ordinal ascending, tombstones included — callers
	// filter). Postings are immutable after build, so this memo is
	// never invalidated; a cursor walks these entries as it scores, and
	// re-decoding a varint block per candidate made scoring an order of
	// magnitude slower than the flat index. Hot query terms decode
	// once; cold terms stay compressed.
	entMemo sync.Map

	// bytes is the total encoded postings size (merge-policy heuristic).
	bytes int
}

// liveDocs returns the number of non-tombstoned documents.
func (s *segment) liveDocs() int { return len(s.docIDs) - s.deadN }

// ordOf returns the ordinal of a doc id and whether it is present.
func (s *segment) ordOf(docID string) (int, bool) {
	i := sort.SearchStrings(s.docIDs, docID)
	if i < len(s.docIDs) && s.docIDs[i] == docID {
		return i, true
	}
	return 0, false
}

// tid returns the term id of a stemmed term and whether it is present.
func (s *segment) tid(term string) (int, bool) {
	t, ok := s.termN[term]
	return t, ok
}

// liveDF returns the term's live document frequency.
func (s *segment) liveDF(tid int) int { return s.posts[tid].df - int(s.delDF[tid]) }

// markDead tombstones one ordinal: bumps per-term deleted counts and
// drops the memoized doc lists of every term the doc posted for.
// Caller holds the owning Index's write lock.
func (s *segment) markDead(ord int) {
	if s.dead[ord] {
		return
	}
	s.dead[ord] = true
	s.deadN++
	for _, t := range s.ordTerms[ord] {
		s.delDF[t]++
		s.decoded.Delete(int(t))
	}
}

// termsOf returns the stemmed terms the given ordinal posts for.
func (s *segment) termsOf(ord int) []string {
	out := make([]string, len(s.ordTerms[ord]))
	for i, t := range s.ordTerms[ord] {
		out[i] = s.terms[t]
	}
	return out
}

// forEachEntry decodes the term's postings in ordinal order, calling fn
// for every entry (including tombstoned ordinals — callers filter).
// Stops early when fn returns false.
func (s *segment) forEachEntry(tid int, fn func(e segEntry) bool) {
	pl := &s.posts[tid]
	for b := 0; b < len(pl.blockOff); b++ {
		if !s.decodeBlock(pl, b, fn) {
			return
		}
	}
}

// decodeBlock decodes one block of a posting list, calling fn per
// entry; returns false if fn stopped the scan.
func (s *segment) decodeBlock(pl *postingList, b int, fn func(e segEntry) bool) bool {
	data := pl.data[pl.blockOff[b]:]
	if b+1 < len(pl.blockOff) {
		data = pl.data[pl.blockOff[b]:pl.blockOff[b+1]]
	}
	n := pl.df - b*blockEntries
	if n > blockEntries {
		n = blockEntries
	}
	pos := 0
	prev := uint64(0)
	for i := 0; i < n; i++ {
		delta, k := binary.Uvarint(data[pos:])
		pos += k
		ord := delta
		if i > 0 {
			ord = prev + delta
		}
		prev = ord
		nf, k := binary.Uvarint(data[pos:])
		pos += k
		e := segEntry{ord: int(ord), fields: make([]segField, nf)}
		for f := 0; f < int(nf); f++ {
			fid, k := binary.Uvarint(data[pos:])
			pos += k
			np, k := binary.Uvarint(data[pos:])
			pos += k
			ps := make([]int, np)
			prevP := uint64(0)
			for p := 0; p < int(np); p++ {
				d, k := binary.Uvarint(data[pos:])
				pos += k
				if p == 0 {
					prevP = d
				} else {
					prevP += d
				}
				ps[p] = int(prevP)
			}
			e.fields[f] = segField{fieldID: int(fid), pos: ps}
		}
		if !fn(e) {
			return false
		}
	}
	return true
}

// entries returns the term's decoded posting entries, ordinal
// ascending, tombstones included. Decoded once per term and memoized
// (see entMemo). Callers must treat the result as immutable.
func (s *segment) entries(tid int) []segEntry {
	if v, ok := s.entMemo.Load(tid); ok {
		return v.([]segEntry)
	}
	out := make([]segEntry, 0, s.posts[tid].df)
	s.forEachEntry(tid, func(e segEntry) bool {
		out = append(out, e)
		return true
	})
	s.entMemo.Store(tid, out)
	return out
}

// liveList is one term's live postings: ids ascending, ents[j] the
// entry of ids[j]. Immutable once built.
type liveList struct {
	ids  []string
	ents []segEntry
}

// live returns the term's live postings. Memoized per term; the memo is
// dropped when a tombstone lands on the term. Until one does, ents is
// the term's entry list itself.
func (s *segment) live(tid int) *liveList {
	if v, ok := s.decoded.Load(tid); ok {
		return v.(*liveList)
	}
	all := s.entries(tid)
	ll := &liveList{ids: make([]string, 0, s.liveDF(tid)), ents: all}
	if s.delDF[tid] > 0 {
		ll.ents = make([]segEntry, 0, s.liveDF(tid))
	}
	for _, e := range all {
		if !s.dead[e.ord] {
			ll.ids = append(ll.ids, s.docIDs[e.ord])
			if s.delDF[tid] > 0 {
				ll.ents = append(ll.ents, e)
			}
		}
	}
	s.decoded.Store(tid, ll)
	return ll
}

// fieldLenOf returns the token count of (ord, fid).
func (s *segment) fieldLenOf(ord, fid int) int {
	return int(s.fieldLen[ord*len(s.fields)+fid])
}

// recomputeBounds rebuilds every term's maxWTF/maxRaw under new field
// weights (a full decode — only done from SetFieldWeights, which is a
// configure-at-startup call).
func (s *segment) recomputeBounds(weights map[string]float64) {
	for t := range s.posts {
		pl := &s.posts[t]
		pl.maxWTF, pl.maxRaw = 0, 0
		s.forEachEntry(t, func(e segEntry) bool {
			raw := 0
			wtf := 0.0
			for _, f := range e.fields {
				raw += len(f.pos)
				wtf += float64(len(f.pos)) * fieldWeight(weights, s.fields[f.fieldID])
			}
			if raw > pl.maxRaw {
				pl.maxRaw = raw
			}
			if wtf > pl.maxWTF {
				pl.maxWTF = wtf
			}
			return true
		})
	}
}

// buildSegment seals a memtable — a frozen one, or the decoded union of
// merge inputs — into an immutable segment: sorts the doc/field/term
// dictionaries, delta-varint encodes each posting list in blocks, and
// computes exact per-term max-score bounds under the given field weights
// (tighter than the memtable's monotone stale-high maxima, so sealed
// data prunes better).
func buildSegment(id uint64, src *memtable, weights map[string]float64) *segment {
	s := &segment{id: id}

	s.docIDs = make([]string, 0, len(src.docs))
	fieldSet := map[string]struct{}{}
	for docID, d := range src.docs {
		s.docIDs = append(s.docIDs, docID)
		for _, f := range d.fields {
			fieldSet[f.field] = struct{}{}
		}
	}
	sort.Strings(s.docIDs)
	ords := make(map[string]int, len(s.docIDs))
	for i, d := range s.docIDs {
		ords[d] = i
	}
	s.fields = make([]string, 0, len(fieldSet))
	for f := range fieldSet {
		s.fields = append(s.fields, f)
	}
	sort.Strings(s.fields)
	s.fieldN = make(map[string]int, len(s.fields))
	for i, f := range s.fields {
		s.fieldN[f] = i
	}

	s.fieldLen = make([]uint32, len(s.docIDs)*len(s.fields))
	s.static = make([]float64, len(s.docIDs))
	for ord, docID := range s.docIDs {
		d := src.docs[docID]
		s.static[ord] = d.static
		for _, f := range d.fields {
			s.fieldLen[ord*len(s.fields)+s.fieldN[f.field]] = uint32(f.n)
		}
	}

	s.terms = make([]string, 0, len(src.terms))
	for t := range src.terms {
		s.terms = append(s.terms, t)
	}
	sort.Strings(s.terms)
	s.termN = make(map[string]int, len(s.terms))
	for i, t := range s.terms {
		s.termN[t] = i
	}

	s.posts = make([]postingList, len(s.terms))
	s.ordTerms = make([][]int32, len(s.docIDs))
	s.dead = make([]bool, len(s.docIDs))
	s.delDF = make([]int32, len(s.terms))

	type entry struct {
		ord int
		fp  fieldPostings
	}
	var ents []entry
	var buf []byte
	for tIdx, term := range s.terms {
		r := src.terms[term]
		ents = ents[:0]
		for j, docID := range r.ids {
			ents = append(ents, entry{ords[docID], r.docs[j]})
		}
		slices.SortFunc(ents, func(a, b entry) int { return a.ord - b.ord })

		pl := &s.posts[tIdx]
		pl.df = len(ents)
		buf = buf[:0]
		prev := 0
		for i, e := range ents {
			ord := e.ord
			s.ordTerms[ord] = append(s.ordTerms[ord], int32(tIdx))
			if i%blockEntries == 0 {
				pl.blockOff = append(pl.blockOff, uint32(len(buf)))
				buf = binary.AppendUvarint(buf, uint64(ord))
			} else {
				buf = binary.AppendUvarint(buf, uint64(ord-prev))
			}
			prev = ord
			if i%blockEntries == blockEntries-1 || i == len(ents)-1 {
				pl.blockLast = append(pl.blockLast, uint32(ord))
			}

			// Runs are encoded in field-id order; the source holds them in
			// first-seen order. Sort a copy — the source may be shared with
			// live readers.
			fp := e.fp
			for i := 1; i < len(fp); i++ {
				if s.fieldN[fp[i-1].field] > s.fieldN[fp[i].field] {
					fp = append(fieldPostings(nil), fp...)
					sort.Slice(fp, func(i, j int) bool { return s.fieldN[fp[i].field] < s.fieldN[fp[j].field] })
					break
				}
			}
			buf = binary.AppendUvarint(buf, uint64(len(fp)))
			raw := 0
			wtf := 0.0
			for _, r := range fp {
				fid, pos := s.fieldN[r.field], r.pos
				if !sort.IntsAreSorted(pos) {
					// merged multi-source runs can interleave; delta
					// encoding needs ascending positions. Sort a copy —
					// the source may be shared with live readers.
					cp := append([]int(nil), pos...)
					sort.Ints(cp)
					pos = cp
				}
				raw += len(pos)
				wtf += float64(len(pos)) * fieldWeight(weights, r.field)
				buf = binary.AppendUvarint(buf, uint64(fid))
				buf = binary.AppendUvarint(buf, uint64(len(pos)))
				prevP := 0
				for pi, p := range pos {
					if pi == 0 {
						buf = binary.AppendUvarint(buf, uint64(p))
					} else {
						buf = binary.AppendUvarint(buf, uint64(p-prevP))
					}
					prevP = p
				}
			}
			if raw > pl.maxRaw {
				pl.maxRaw = raw
			}
			if wtf > pl.maxWTF {
				pl.maxWTF = wtf
			}
		}
		pl.data = append([]byte(nil), buf...)
		s.bytes += len(pl.data)
	}
	return s
}

// decodeInto expands the segment's live postings into dst, the memtable
// a merge seals (dst's documents keep no term list: it is never live).
// deadSnap is the tombstone view to honor. A document dst already holds
// — its postings span inputs — gets its runs appended to its own.
func (s *segment) decodeInto(dst *memtable, deadSnap []bool) {
	spans := make([]bool, len(s.docIDs))
	for ord, docID := range s.docIDs {
		if deadSnap[ord] {
			continue
		}
		d := dst.docs[docID]
		if d == nil {
			d = &docRec{}
			dst.docs[docID] = d
		} else {
			spans[ord] = true
		}
		d.static = s.static[ord]
		for fid, field := range s.fields {
			if n := s.fieldLenOf(ord, fid); n > 0 {
				d.growField(field, n)
			}
		}
	}
	for tIdx, term := range s.terms {
		r := dst.terms[term]
		s.forEachEntry(tIdx, func(e segEntry) bool {
			if deadSnap[e.ord] {
				return true
			}
			if r == nil {
				r = &termRec{term: term}
				dst.terms[term] = r
			}
			docID := s.docIDs[e.ord]
			if spans[e.ord] {
				if j := r.find(docID); j >= 0 {
					for _, f := range e.fields {
						r.docs[j] = r.docs[j].appendTo(s.fields[f.fieldID], f.pos...)
					}
					return true
				}
			}
			fp := make(fieldPostings, len(e.fields))
			for i, f := range e.fields {
				fp[i] = fieldRun{s.fields[f.fieldID], f.pos}
			}
			r.push(docID, fp)
			return true
		})
	}
}
