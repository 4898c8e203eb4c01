package search

import (
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

// score is the single ranking implementation: the score of one
// document for the parsed query, restricted to the given fields (nil
// means all fields). Bare terms are always scored from postings. d is
// the stored document when the caller has read it and nil otherwise; it
// is consulted only for what postings cannot give — a quoted phrase's
// matches in the raw text (a query with one always reads its candidates)
// and the publish date, whose recency value the index also records at
// indexing time. With or without d the same floats accumulate in the
// same order, so a page does not depend on whether documents were read.
func (e *Engine) score(docID string, d jsondoc.Doc, terms []textproc.QueryTerm, fields map[string]bool) RankExplain {
	var ex RankExplain
	opts := *e.rankOpts.Load()
	fieldWeight := func(f string) float64 {
		if opts.FlatFields {
			return 1
		}
		return fieldWeights[f]
	}
	idf := func(term string) float64 {
		if opts.NoIDF {
			return 1
		}
		return e.idx.IDF(term)
	}

	// Stemmed terms participate in TF-IDF and proximity; exact phrases
	// contribute through match counting on the raw text.
	var stemBuf [4]string
	stemmed := stemBuf[:0]
	for _, t := range terms {
		if !t.Exact {
			stemmed = append(stemmed, t.Text)
		}
	}

	matched := 0
	totalMatches := 0
	for _, t := range terms {
		termHit := false
		if t.Exact {
			if d == nil {
				continue // a phrase query always reads its candidates
			}
			for _, f := range allFields {
				if fields != nil && !fields[f] {
					continue
				}
				anyFieldText(d, f, func(txt string) bool {
					if at, _ := textproc.IndexFold(txt, t.Text, 0); at >= 0 {
						termHit = true
						totalMatches++
						ex.TFIDF += fieldWeight(f) // exact phrases score by field weight alone
					}
					return false // count every matching text
				})
			}
		} else {
			for _, f := range e.idx.FieldsOf(docID, t.Text) {
				if fields != nil && !fields[f] {
					continue
				}
				termHit = true
				tf := e.idx.TermFreq(t.Text, docID, f)
				totalMatches += tf
				ex.TFIDF += float64(tf) * idf(t.Text) * fieldWeight(f) * wTFIDF / 10
			}
			// synonym matches score at a discount and can rescue
			// coverage when the literal term is absent
			syns := textproc.SynonymStems(t.Text)
			if opts.NoSynonyms {
				syns = nil
			}
			for _, syn := range syns {
				for _, f := range e.idx.FieldsOf(docID, syn) {
					if fields != nil && !fields[f] {
						continue
					}
					termHit = true
					tf := e.idx.TermFreq(syn, docID, f)
					ex.TFIDF += float64(tf) * idf(syn) * fieldWeight(f) * wSynonym / 10
				}
			}
		}
		if termHit {
			matched++
		}
	}

	ex.Matches = wMatches * float64(totalMatches)

	// Proximity: reward query terms that occur near each other. Use the
	// minimum pairwise distance among stemmed terms.
	if len(stemmed) >= 2 && !opts.NoProximity {
		best := -1
		for i := 0; i < len(stemmed); i++ {
			for j := i + 1; j < len(stemmed); j++ {
				if di := e.idx.MinPairDistance(docID, stemmed[i], stemmed[j]); di >= 0 && (best < 0 || di < best) {
					best = di
				}
			}
		}
		if best >= 0 {
			ex.Proximity = wProximity / float64(1+best)
		}
	}

	// Coverage: fraction of query terms the document matched at all.
	if len(terms) > 0 && !opts.NoCoverage {
		ex.Coverage = wCoverage * float64(matched) / float64(len(terms))
	}

	// Static feature: newer publications get a small boost — read from
	// the index, or recomputed from the document in hand (identical:
	// indexDoc stores recencyOf(d)).
	if d == nil {
		ex.Recency = e.idx.Static(docID)
	} else {
		ex.Recency = recencyOf(d)
	}

	ex.Total = ex.TFIDF + ex.Matches + ex.Proximity + ex.Coverage + ex.Recency
	return ex
}
