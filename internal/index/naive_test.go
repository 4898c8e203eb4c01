package index

import (
	"math"
	"sort"
)

// The per-(term, document) reads the rankers used before the posting
// cursor replaced them — each call gathers the pair's positions across
// every part into a map under its own lock — kept verbatim as the naive
// reference the cursor's stream and the segment lifecycle tests are held
// to. Nothing outside tests calls them.

// TermFreq returns the occurrence count of term in the given field of
// doc, summed across parts.
func (ix *Index) TermFreq(term, docID, field string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, m := range ix.memsLocked() {
		n += len(m.terms[term].runsOf(docID).positions(field))
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
		for _, r := range m.terms[term].runsOf(docID) {
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
			r := m.terms[t]
			if r == nil {
				continue
			}
			for j, doc := range r.ids {
				if fields == nil {
					set[doc] = struct{}{}
					continue
				}
				for _, run := range r.docs[j] {
					if fields[run.field] {
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
			s.forEachEntry(tid, func(e segEntry) bool {
				for _, f := range e.fields {
					if !s.dead[e.ord] && fields[s.fields[f.fieldID]] {
						set[s.docIDs[e.ord]] = struct{}{}
					}
				}
				return true
			})
		}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
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

// hasTermDocLocked reports whether doc has a live posting for term in
// any part.
func (ix *Index) hasTermDocLocked(term, docID string) bool {
	for _, m := range ix.memsLocked() {
		if m.terms[term].runsOf(docID) != nil {
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
		if r := m.terms[smallest]; r != nil {
			for _, doc := range r.ids {
				check(doc)
			}
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

// entry random-accesses the posting entry for one ordinal: binary
// search over the term's memoized entries.
func (s *segment) entry(tid, ord int) (segEntry, bool) {
	ents := s.entries(tid)
	i := sort.Search(len(ents), func(i int) bool { return ents[i].ord >= ord })
	if i < len(ents) && ents[i].ord == ord {
		return ents[i], true
	}
	return segEntry{}, false
}

// contains reports whether the ordinal posts for the term (tombstones
// not considered — callers check dead separately).
func (s *segment) contains(tid, ord int) bool {
	_, ok := s.entry(tid, ord)
	return ok
}

// docList returns the term's live doc ids, ascending.
func (s *segment) docList(tid int) []string { return s.live(tid).ids }

// runsOf returns docID's runs of the record, nil when it does not post.
func (r *termRec) runsOf(docID string) fieldPostings {
	if r == nil {
		return nil
	}
	if j := r.find(docID); j >= 0 {
		return r.docs[j]
	}
	return nil
}

// positions returns the term's positions in field, nil when it has none.
func (fp fieldPostings) positions(field string) []int {
	for i := range fp {
		if fp[i].field == field {
			return fp[i].pos
		}
	}
	return nil
}

// IDF returns the inverse document frequency of a stemmed term:
// log((N+1)/(df+1)) + 1, smoothed so unseen terms still rank.
func (ix *Index) IDF(term string) float64 {
	ix.mu.RLock()
	n := ix.docCountLocked()
	df := ix.docFreqLocked(term)
	ix.mu.RUnlock()
	return idf(n, df)
}

// Terms returns every term with at least one live posting, sorted;
// used by vocabulary tooling.
func (ix *Index) Terms() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	set := map[string]struct{}{}
	for _, m := range ix.memsLocked() {
		for t := range m.terms {
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
