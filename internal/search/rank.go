package search

import (
	"math"
	"slices"

	"covidkg/internal/index"
	"covidkg/internal/jsondoc"
	"covidkg/internal/textproc"
)

// Field weights for the ranking function. The paper weights "which field
// the term was matched in"; titles and captions are short, curated text
// and dominate body matches.
var fieldWeights = map[string]float64{
	FieldTitle:         3.0,
	FieldTableCaption:  2.5,
	FieldAbstract:      2.0,
	FieldTableCell:     2.0,
	FieldFigureCaption: 1.5,
	FieldBody:          1.0,
}

// Ranking feature weights. The ranking is "an accumulation of various
// weighted features per document": per-term TF-IDF within matched
// fields, total match count, proximity between matched terms, and a
// static document feature (recency).
const (
	wTFIDF     = 1.0
	wMatches   = 0.05
	wProximity = 0.75
	wCoverage  = 1.5
	wRecency   = 0.1
	// wSynonym discounts matches through the synonym table relative to
	// direct term matches (§5: the ranking "recognizes synonymy").
	wSynonym = 0.4
)

// RankOptions disables individual ranking features for ablation studies
// (experiment E13). The zero value enables everything — the production
// configuration.
type RankOptions struct {
	NoProximity bool // drop the term-proximity feature
	NoCoverage  bool // drop the query-coverage feature
	FlatFields  bool // weight every field equally
	NoIDF       bool // count raw matches without TF-IDF weighting
	NoSynonyms  bool // ignore the synonym table
}

// SetRankOptions configures feature ablation. Safe to call concurrently
// with queries: options are copy-on-set behind an atomic pointer, and
// setting them bumps the engine generation so cached pages computed
// under the old options are invalidated.
func (e *Engine) SetRankOptions(o RankOptions) {
	e.rankOpts.Store(&o)
	e.invalidate()
}

// RankOptions returns the current ablation options (a copy).
func (e *Engine) RankOptions() RankOptions { return *e.rankOpts.Load() }

// RankExplain carries the per-feature breakdown of one document's score,
// so experiments (and curious users) can see why a result ranked where
// it did.
type RankExplain struct {
	TFIDF     float64
	Matches   float64
	Proximity float64
	Coverage  float64
	Recency   float64
	Total     float64
}

// recencyOf computes the static recency feature from a document's
// publish date. Dates are ISO "YYYY-MM-DD"; missing dates contribute
// nothing. The engine records this value in the index at indexing time
// so scoring can apply it without touching the stored document.
func recencyOf(d jsondoc.Doc) float64 {
	if date := d.GetString("publish_date"); len(date) >= 4 {
		switch {
		case date >= "2022":
			return wRecency * 1.0
		case date >= "2021":
			return wRecency * 0.6
		case date >= "2020":
			return wRecency * 0.3
		}
	}
	return 0
}

// termSlot is one query term's cursor names: itself and its synonyms. A
// quoted phrase has neither (primary < 0) but its content words, in
// order: it scores from the stored text, where they can be adjacent.
type termSlot struct {
	primary int
	syns    []int
	words   []int
}

// ranker is one parsed query compiled against one snapshot of the index
// — the only thing a query reads the index through. What does not depend
// on the document is resolved here, once: the ablation options, the
// synonym expansion, each name's IDF (from the df and N the cursor
// captured, so a pruning bound and the score it bounds cannot disagree
// under a live writer) and max-score pieces. Not safe for concurrent
// use: a goroutine takes a copy with a cursor of its own (Cursor.Fork).
type ranker struct {
	cur    *index.Cursor
	opts   RankOptions
	terms  []textproc.QueryTerm
	fields map[string]bool // rank only these fields; nil = every field
	names  []string        // the cursor's names
	slots  []termSlot      // aligned with terms
	stems  []int           // the bare terms' names, for proximity
	scan   bool            // a phrase has no indexable word: only an id scan can answer
	idf    []float64       // per name

	// Per-name max-score pieces, mirroring the score formula's weights: a
	// name present in a document adds at most maxWTF·idf·w/10 to the
	// TF-IDF feature (w is wTFIDF where it is a query term, wSynonym where
	// it expands one) and, as a query term only, at most wMatches·maxRaw
	// to the match count. FlatFields swaps the weighted maximum for the
	// raw one, NoIDF pins idf at 1 — the ablations score applies.
	termUB, synUB, rawUB []float64
}

// name returns the cursor slot of a stemmed name, adding it when new.
func (r *ranker) name(stem string) int {
	if i := slices.Index(r.names, stem); i >= 0 {
		return i
	}
	r.names = append(r.names, stem)
	return len(r.names) - 1
}

// newRanker compiles terms (distinct — see dedupeTerms) and takes the
// index snapshot; a phrase's content words join it to resolve candidates.
func (e *Engine) newRanker(terms []textproc.QueryTerm, fields map[string]bool) *ranker {
	r := &ranker{opts: *e.rankOpts.Load(), terms: terms, fields: fields, slots: make([]termSlot, len(terms))}
	for i, t := range terms {
		if t.Exact {
			r.slots[i].primary = -1
			for _, w := range textproc.ContentWords(t.Text) {
				r.slots[i].words = append(r.slots[i].words, r.name(w))
			}
			r.scan = r.scan || len(r.slots[i].words) == 0
			continue
		}
		r.slots[i].primary = r.name(t.Text)
		r.stems = append(r.stems, r.slots[i].primary)
		for _, syn := range textproc.SynonymStems(t.Text) {
			// on the cursor under NoSynonyms too: candidates keep them
			if j := r.name(syn); !r.opts.NoSynonyms {
				r.slots[i].syns = append(r.slots[i].syns, j)
			}
		}
	}
	r.cur = e.idx.Cursor(r.names)
	n := len(r.names)
	tab := make([]float64, 4*n)
	r.idf, r.termUB, r.synUB, r.rawUB = tab[:n], tab[n:2*n], tab[2*n:3*n], tab[3*n:]
	for i := range r.names {
		r.idf[i] = 1
		if !r.opts.NoIDF {
			r.idf[i] = r.cur.IDF(i)
		}
		maxTF := r.cur.MaxWTF(i)
		if r.opts.FlatFields {
			maxTF = float64(r.cur.MaxRaw(i))
		}
		r.termUB[i] = maxTF * r.idf[i] * wTFIDF / 10
		r.synUB[i] = maxTF * r.idf[i] * wSynonym / 10
		r.rawUB[i] = wMatches * float64(r.cur.MaxRaw(i))
	}
	return r
}

func (r *ranker) fieldWeight(f string) float64 {
	if r.opts.FlatFields {
		return 1
	}
	return fieldWeights[f]
}

// score is the single ranking implementation: the score of one document
// for the compiled query, every posting-derived feature — TF-IDF per
// field, match count, coverage, proximity — computed from one gather of
// each name's runs off the cursor. d is the stored document when the
// caller has read it and nil otherwise; it is consulted only for what
// postings cannot give — a quoted phrase's matches in the raw text, and
// only in a document whose postings allow the phrase (phraseIn over the
// ranked fields: every such candidate is read) — and the publish date,
// whose recency value the index also records at indexing time. So for a
// candidate that is not read, and for every query without a phrase, the
// same floats accumulate in the same order with or without d: a page does
// not depend on which documents were read.
func (r *ranker) score(docID string, d jsondoc.Doc) RankExplain {
	r.cur.Seek(docID)
	return r.scoreHere(d)
}

// scoreHere scores the document the cursor is on.
func (r *ranker) scoreHere(d jsondoc.Doc) RankExplain {
	var ex RankExplain
	cur := r.cur

	// Stemmed terms participate in TF-IDF and proximity; exact phrases
	// contribute through match counting on the raw text.
	matched := 0
	totalMatches := 0
	for ti, t := range r.terms {
		termHit := false
		if t.Exact {
			if d == nil || !r.phraseIn(r.slots[ti].words, r.fields) {
				continue // no credit where the words are not adjacent
			}
			for _, f := range allFields {
				if r.fields != nil && !r.fields[f] {
					continue
				}
				anyFieldText(d, f, func(txt string) bool {
					if at, _ := textproc.IndexFold(txt, t.Text, 0); at >= 0 {
						termHit = true
						totalMatches++
						ex.TFIDF += r.fieldWeight(f) // exact phrases score by field weight alone
					}
					return false // count every matching text
				})
			}
		} else {
			slot := r.slots[ti]
			tf := r.tfidf(&ex, slot.primary, wTFIDF)
			totalMatches += tf
			termHit = tf > 0
			// synonym matches score at a discount and can rescue
			// coverage when the literal term is absent
			for _, syn := range slot.syns {
				termHit = r.tfidf(&ex, syn, wSynonym) > 0 || termHit
			}
		}
		if termHit {
			matched++
		}
	}

	ex.Matches = wMatches * float64(totalMatches)

	// Proximity: reward query terms that occur near each other — the
	// minimum distance between any two stemmed terms within one field
	// (any field: the feature is not restricted to the ranked ones).
	if len(r.stems) >= 2 && !r.opts.NoProximity {
		best := -1
		for i, a := range r.stems {
			for _, b := range r.stems[i+1:] {
				if di := minRunDistance(cur.Runs(a), cur.Runs(b)); di >= 0 && (best < 0 || di < best) {
					best = di
				}
			}
		}
		if best >= 0 {
			ex.Proximity = wProximity / float64(1+best)
		}
	}

	// Coverage: fraction of query terms the document matched at all.
	if len(r.terms) > 0 && !r.opts.NoCoverage {
		ex.Coverage = wCoverage * float64(matched) / float64(len(r.terms))
	}

	// Static feature: newer publications get a small boost — read from
	// the index, or recomputed from the document in hand (identical:
	// indexing stores recencyOf(d)).
	if d == nil {
		ex.Recency = cur.Static()
	} else {
		ex.Recency = recencyOf(d)
	}

	ex.Total = ex.TFIDF + ex.Matches + ex.Proximity + ex.Coverage + ex.Recency
	return ex
}

// phraseIn reports whether the postings of the cursor's document allow
// the phrase: its content words sit at consecutive content-word positions
// inside one of fields (nil = any field) — Index.Add's numbering, so the
// stopwords inside a phrase drop out on both sides. Necessary for the
// phrase to occur in that field's text, not sufficient (two table cells,
// or "risk infection" for "risk of infection", are adjacent too): the
// stored text decides. A phrase of stopwords only is allowed everywhere.
func (r *ranker) phraseIn(words []int, fields map[string]bool) bool {
	if len(words) == 0 {
		return true
	}
	var buf [4][]index.Run
	runs := buf[:0]
	for _, w := range words {
		runs = append(runs, r.cur.Runs(w))
	}
	for _, first := range runs[0] {
		if fields != nil && !fields[first.Field] {
			continue
		}
	starts:
		for _, p := range first.Pos {
			for k := 1; k < len(runs); k++ {
				if !hasPos(runs[k], first.Field, p+k) {
					continue starts
				}
			}
			return true
		}
	}
	return false
}

// hasPos reports whether runs holds position p of field.
func hasPos(runs []index.Run, field string, p int) bool {
	for _, run := range runs {
		if run.Field == field {
			_, ok := slices.BinarySearch(run.Pos, p)
			return ok
		}
	}
	return false
}

// tfidf adds one name's TF-IDF over the ranked fields of the cursor's
// document, at feature weight w, and returns its occurrences there.
func (r *ranker) tfidf(ex *RankExplain, name int, w float64) (tf int) {
	for _, run := range r.cur.Runs(name) {
		if r.fields == nil || r.fields[run.Field] {
			tf += len(run.Pos)
			ex.TFIDF += float64(len(run.Pos)) * r.idf[name] * r.fieldWeight(run.Field) * w / 10
		}
	}
	return tf
}

// bound is the max-score upper bound of the document the cursor is on:
// the present names' TF-IDF caps, the present query terms' match-count
// caps, perfect coverage over the terms with any present name, the
// proximity feature's maximum when ≥2 query terms co-occur, and the
// document's static (recency) score.
func (r *ranker) bound() float64 {
	cur := r.cur
	ub := cur.Static()
	matchedSlots := 0
	primaries := 0
	for _, s := range r.slots {
		if s.primary < 0 {
			continue
		}
		hit := false
		if cur.Has(s.primary) {
			hit = true
			primaries++
			ub += r.termUB[s.primary] + r.rawUB[s.primary]
		}
		for _, j := range s.syns {
			if cur.Has(j) {
				hit = true
				ub += r.synUB[j]
			}
		}
		if hit {
			matchedSlots++
		}
	}
	if matchedSlots > 0 && !r.opts.NoCoverage {
		ub += wCoverage * float64(matchedSlots) / float64(len(r.terms))
	}
	if primaries >= 2 && !r.opts.NoProximity {
		ub += wProximity
	}
	return ub
}

// minRunDistance returns the smallest token distance between any
// occurrence in a and any in b within the same field (both in field-name
// order), or -1 when they share no field.
func minRunDistance(a, b []index.Run) int {
	best := -1
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].Field < b[j].Field:
			i++
		case a[i].Field > b[j].Field:
			j++
		default:
			if d := minListDistance(a[i].Pos, b[j].Pos); best < 0 || d < best {
				best = d
			}
			i++
			j++
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
