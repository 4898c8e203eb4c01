package search

import (
	"context"
	"sort"
	"strings"
	"unicode/utf8"

	"covidkg/internal/jsondoc"
	"covidkg/internal/textproc"
)

// refRank is the naive ranker runQuery is held to, for every query shape
// and every store condition: read every candidate (every id the store
// will list, when the index resolved none), keep what the predicate
// confirms, score each document with e.score, sort the whole list, slice
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
			rs = append(rs, resultFromDoc(d, e.score(ids[i], d, q.terms, q.rankFields).Total))
			rs[len(rs)-1].Snippets = appendSnippets(nil, d, q.snippetFields, textproc.CompileTerms(q.terms, false))
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
