package search

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"covidkg/internal/index"
	"covidkg/internal/jsondoc"
	"covidkg/internal/textproc"
)

// refRank is the naive ranker runQuery is held to, for every query shape
// and every store condition: read every candidate (every id the store
// will list, when the index resolved none), keep what the predicate
// confirms, score each document with the plan's ranker, sort the whole list, slice
// the page, excerpt. A candidate that cannot be read — deleted, or on a
// dark shard, which is then reported — is not a hit.
func (e *Engine) refRank(q plan, pageNum int) Page {
	ctx := context.Background()
	ids, verify := q.candidates, q.verify
	dark := map[int]bool{}
	if ids == nil {
		verify = true
		for si := 0; si < e.coll.NumShards(); si++ {
			sids, err := e.coll.ShardIDsContext(ctx, si)
			dark[si] = err != nil
			ids = append(ids, sids...)
		}
		sort.Strings(ids)
	}
	docs, miss, _ := e.coll.GetMany(ctx, ids)
	for _, si := range miss {
		dark[si] = true
	}
	var rs []Result
	for i, d := range docs {
		if d != nil && (!verify || q.match(d)) {
			rs = append(rs, resultFromDoc(d, q.rank.score(ids[i], d).Total))
			rs[len(rs)-1].Snippets = appendSnippets(nil, d, q.snippetFields, textproc.CompileTerms(q.rank.terms, false))
		}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].DocID < rs[j].DocID
	})
	pg := Page{Total: len(rs), PageNum: pageNum, PerPage: PerPage, NumPages: max(1, (len(rs)+PerPage-1)/PerPage)}
	for si := 0; si < e.coll.NumShards(); si++ {
		if dark[si] {
			pg.Partial, pg.MissingShards = true, append(pg.MissingShards, si)
		}
	}
	if lo := (pageNum - 1) * PerPage; lo < len(rs) {
		pg.Results = rs[lo:min(lo+PerPage, len(rs))]
	}
	return pg
}

// The query-time matching code as it stood before the compiled
// TermMatcher replaced it — tokenise the text once per query term, stem
// every token, compare — kept verbatim (only renamed ref*) as the
// reference implementations the differential tests hold the new kernel
// to. Known defect, kept on purpose: refMatchSpans finds quoted terms in
// strings.ToLower(text) but reports the offsets against text, so the two
// only agree where lowercasing keeps every rune's byte length.

func refFieldTexts(d jsondoc.Doc) map[string][]string {
	out := map[string][]string{
		FieldTitle:    {d.GetString("title")},
		FieldAbstract: {d.GetString("abstract")},
		FieldBody:     {d.GetString("body_text")},
	}
	for _, tv := range d.GetArray("tables") {
		tm, _ := tv.(map[string]any)
		if tm == nil {
			continue
		}
		td := jsondoc.Doc(tm)
		out[FieldTableCaption] = append(out[FieldTableCaption], td.GetString("caption"))
		var cells []string
		for _, rv := range td.GetArray("rows") {
			ra, _ := rv.([]any)
			for _, cv := range ra {
				if s, ok := cv.(string); ok && s != "" {
					cells = append(cells, s)
				}
			}
		}
		out[FieldTableCell] = append(out[FieldTableCell], strings.Join(cells, " | "))
	}
	for _, fv := range d.GetArray("figure_captions") {
		if s, ok := fv.(string); ok {
			out[FieldFigureCaption] = append(out[FieldFigureCaption], s)
		}
	}
	return out
}

func refTermMatches(term textproc.QueryTerm, text string) bool {
	if term.Exact {
		return strings.Contains(strings.ToLower(text), term.Text)
	}
	for _, tok := range textproc.Tokenize(text) {
		if refTokenMatchesStem(tok.Text, term.Text) {
			return true
		}
	}
	return false
}

func refTokenMatchesStem(token, stem string) bool {
	return textproc.Stem(token) == stem || strings.HasPrefix(token, stem)
}

func (e *Engine) refTermMatchesSyn(term textproc.QueryTerm, text string) bool {
	if term.Exact {
		return strings.Contains(strings.ToLower(text), term.Text)
	}
	stems := []string{term.Text}
	if !e.RankOptions().NoSynonyms {
		stems = append(stems, textproc.SynonymStems(term.Text)...)
	}
	for _, tok := range textproc.Tokenize(text) {
		for _, s := range stems {
			if refTokenMatchesStem(tok.Text, s) {
				return true
			}
		}
	}
	return false
}

func (e *Engine) refAnyTermInFields(d jsondoc.Doc, terms []textproc.QueryTerm, fields ...string) bool {
	texts := refFieldTexts(d)
	for _, f := range fields {
		for _, txt := range texts[f] {
			for _, t := range terms {
				if e.refTermMatchesSyn(t, txt) {
					return true
				}
			}
		}
	}
	return false
}

func refMakeSnippet(field, text string, terms []textproc.QueryTerm) (Snippet, bool) {
	spans := refMatchSpans(text, terms)
	if len(spans) == 0 {
		return Snippet{}, false
	}

	// window around the first match
	start := spans[0][0] - snippetRadius
	if start < 0 {
		start = 0
	}
	end := spans[0][1] + snippetRadius
	if end > len(text) {
		end = len(text)
	}
	for start > 0 && !utf8.RuneStart(text[start]) {
		start--
	}
	for end < len(text) && !utf8.RuneStart(text[end]) {
		end++
	}

	excerpt := text[start:end]
	var hl [][2]int
	for _, sp := range spans {
		if sp[0] >= start && sp[1] <= end {
			hl = append(hl, [2]int{sp[0] - start, sp[1] - start})
		}
	}
	if start > 0 {
		excerpt = "…" + excerpt
		off := len("…")
		for i := range hl {
			hl[i][0] += off
			hl[i][1] += off
		}
	}
	if end < len(text) {
		excerpt += "…"
	}
	return Snippet{Field: field, Text: excerpt, Highlights: hl}, true
}

func refMatchSpans(text string, terms []textproc.QueryTerm) [][2]int {
	var spans [][2]int
	lower := strings.ToLower(text)
	for _, t := range terms {
		if t.Exact {
			for from := 0; ; {
				i := strings.Index(lower[from:], t.Text)
				if i < 0 {
					break
				}
				s := from + i
				spans = append(spans, [2]int{s, s + len(t.Text)})
				from = s + len(t.Text)
			}
		} else {
			for _, tok := range textproc.Tokenize(text) {
				if refTokenMatchesStem(tok.Text, t.Text) {
					spans = append(spans, [2]int{tok.Start, tok.End})
				}
			}
		}
	}
	if len(spans) == 0 {
		return nil
	}
	sortSpans(spans)
	return dedupeSpans(spans)
}

// refGathers are the index reads e.score made before the posting cursor
// — FieldsOf, TermFreq, MinPairDistance, each a fresh per-(term, doc)
// gather — rebuilt naively over Index.Lookup, so refScore shares nothing
// with the cursor. idf is computed from the index's live counts and
// static read from the index by default; a test that pins a snapshot
// swaps them.
type refGathers struct {
	postings map[string][]index.Posting // term → Lookup(term), memoized
	ix       *index.Index
	idf      func(term string) float64
	static   func(docID string) float64
}

func newRefGathers(ix *index.Index) *refGathers {
	return &refGathers{postings: map[string][]index.Posting{}, ix: ix, idf: func(t string) float64 { return refIDF(ix, t) }, static: ix.Static}
}

// refIDF is the smoothed inverse document frequency log((N+1)/(df+1)) + 1
// of the index as it stands now.
func refIDF(ix *index.Index, term string) float64 {
	return math.Log(float64(ix.DocCount()+1)/float64(ix.DocFreq(term)+1)) + 1
}

// positions is the (term, doc) gather: field → positions.
func (g *refGathers) positions(term, docID string) map[string][]int {
	ps, ok := g.postings[term]
	if !ok {
		ps = g.ix.Lookup(term)
		g.postings[term] = ps
	}
	out := map[string][]int{}
	for _, p := range ps {
		if p.DocID == docID {
			out[p.Field] = p.Positions
		}
	}
	return out
}

func (g *refGathers) FieldsOf(docID, term string) []string {
	var out []string
	for f := range g.positions(term, docID) {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

func (g *refGathers) TermFreq(term, docID, field string) int {
	return len(g.positions(term, docID)[field])
}

func (g *refGathers) MinPairDistance(docID, a, b string) int {
	best := -1
	for f, posA := range g.positions(a, docID) {
		for _, pa := range posA {
			for _, pb := range g.positions(b, docID)[f] {
				if d := max(pa-pb, pb-pa); best < 0 || d < best {
					best = d
				}
			}
		}
	}
	return best
}

// phrasePossible is the positional rule, naively: the phrase's content
// words at consecutive positions of one of fields (nil = any) of the
// document, by brute force over Lookup. A phrase of stopwords only is
// possible everywhere.
func (g *refGathers) phrasePossible(docID, phrase string, fields map[string]bool) bool {
	words := textproc.ContentWords(phrase)
	if len(words) == 0 {
		return true
	}
	for f, starts := range g.positions(words[0], docID) {
		if fields != nil && !fields[f] {
			continue
		}
		for _, p := range starts {
			ok := true
			for k, w := range words[1:] {
				ok = ok && slices.Contains(g.positions(w, docID)[f], p+k+1)
			}
			if ok {
				return true
			}
		}
	}
	return false
}

// refScore is e.score as it stood before the cursor fed it — the body
// verbatim, only e.idx.X(…) renamed g.X(…) and the options passed in, and
// since quoted phrases resolve from positions the one-line phrasePossible
// rule — kept as the oracle for the scorer itself: refRank ranks with the
// engine's scorer, so it cannot see a change in what a document scores.
func refScore(g *refGathers, opts RankOptions, docID string, d jsondoc.Doc, terms []textproc.QueryTerm, fields map[string]bool) RankExplain {
	var ex RankExplain
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
		return g.idf(term)
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
			if d == nil || !g.phrasePossible(docID, t.Text, fields) {
				continue // credited only where the words are adjacent (the one post-cursor edit)
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
			for _, f := range g.FieldsOf(docID, t.Text) {
				if fields != nil && !fields[f] {
					continue
				}
				termHit = true
				tf := g.TermFreq(t.Text, docID, f)
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
				for _, f := range g.FieldsOf(docID, syn) {
					if fields != nil && !fields[f] {
						continue
					}
					termHit = true
					tf := g.TermFreq(syn, docID, f)
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
				if di := g.MinPairDistance(docID, stemmed[i], stemmed[j]); di >= 0 && (best < 0 || di < best) {
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
	// indexing stores recencyOf(d)).
	if d == nil {
		ex.Recency = g.static(docID)
	} else {
		ex.Recency = recencyOf(d)
	}

	ex.Total = ex.TFIDF + ex.Matches + ex.Proximity + ex.Coverage + ex.Recency
	return ex
}
