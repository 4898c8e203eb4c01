// Package textproc implements the text normalization used by the COVIDKG
// search engines and classifiers: Unicode-tolerant tokenization, the
// Porter (1980) stemming algorithm, a medical-domain-aware stopword list,
// and the query grammar from §2.1 of the paper (quoted phrases are exact
// matches; bare terms are stemmed).
package textproc

import (
	"strings"
	"sync"
)

// Token is a single token with its byte offsets in the source text, so
// snippet generators can highlight the original spans.
type Token struct {
	Text  string // lowercased surface form
	Start int    // byte offset of first byte in source
	End   int    // byte offset one past last byte in source
}

// Tokenize splits text into lowercase word tokens. A token is a maximal
// run of letters, digits, or internal hyphens/apostrophes (so "COVID-19"
// and "don't" stay single tokens). Offsets refer to the original string.
func Tokenize(text string) []Token {
	var out []Token
	var sc Scanner
	sc.Reset(text)
	for tok := sc.Next(); tok != nil; tok = sc.Next() {
		// an already-lowercase token is a substring of text: no copy
		word := text[sc.Start:min(sc.Start+len(tok), len(text))]
		if word != string(tok) {
			word = string(tok)
		}
		out = append(out, Token{Text: word, Start: sc.Start, End: sc.End})
	}
	return out
}

// Words returns just the token texts of Tokenize(text).
func Words(text string) []string {
	toks := Tokenize(text)
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

// stopwords is a standard English stopword list extended with terms that
// dominate a COVID-19 research corpus and carry no discriminative power.
var stopwords = map[string]struct{}{}

func init() {
	for _, w := range []string{
		"a", "an", "and", "are", "as", "at", "be", "been", "but", "by",
		"for", "from", "had", "has", "have", "he", "her", "his", "i",
		"if", "in", "into", "is", "it", "its", "no", "not", "of", "on",
		"or", "our", "she", "so", "such", "that", "the", "their", "them",
		"then", "there", "these", "they", "this", "to", "was", "we",
		"were", "what", "when", "which", "while", "who", "will", "with",
		"you", "your", "than", "can", "may", "more", "most", "also",
		"both", "each", "other", "some", "any", "all", "between",
		"during", "after", "before", "under", "over", "about", "among",
		"et", "al", "fig", "figure", "table",
	} {
		stopwords[w] = struct{}{}
	}
}

// IsStopword reports whether the lowercased word is on the stopword list.
func IsStopword(w string) bool {
	_, ok := stopwords[strings.ToLower(w)]
	return ok
}

// ContentWords tokenizes, removes stopwords, and stems. This is the
// canonical path text takes before entering the inverted index or the
// vocabulary builder. It walks the Scanner's tokens in place, so once
// the memo holds a text's words the result slice is its one allocation,
// and no word of the result shares memory with text.
func ContentWords(text string) []string {
	scratch := contentScratch.Get().(*[]string)
	words := (*scratch)[:0]
	var sc Scanner
	sc.Reset(text)
	for tok := sc.Next(); tok != nil; tok = sc.Next() {
		if _, stop := stopwords[string(tok)]; !stop { // tok is lowercase already
			words = append(words, stemToken(tok))
		}
	}
	out := make([]string, len(words))
	copy(out, words)
	clear(words)
	*scratch = words
	contentScratch.Put(scratch)
	return out
}

// contentScratch holds ContentWords' growing buffers, so a text's
// words are collected without regrowth and returned in one exact slice.
var contentScratch = sync.Pool{New: func() any { return new([]string) }}

// QueryTerm is one unit of a parsed user query.
type QueryTerm struct {
	Text  string // stemmed term, or verbatim phrase if Exact
	Exact bool   // true when the user quoted the term/phrase (§2.1)
}

// ParseQuery implements the paper's query grammar: segments wrapped in
// double quotes are exact-match phrases; everything else is tokenized,
// stopword-filtered, and stemmed.
func ParseQuery(q string) []QueryTerm {
	var out []QueryTerm
	for {
		open := strings.IndexByte(q, '"')
		if open < 0 {
			break
		}
		rest := q[open+1:]
		close := strings.IndexByte(rest, '"')
		if close < 0 {
			break
		}
		before := q[:open]
		phrase := strings.TrimSpace(rest[:close])
		for _, w := range Words(before) {
			if !IsStopword(w) {
				out = append(out, QueryTerm{Text: Stem(w)})
			}
		}
		if phrase != "" {
			out = append(out, QueryTerm{Text: strings.ToLower(phrase), Exact: true})
		}
		q = rest[close+1:]
	}
	for _, w := range Words(q) {
		if !IsStopword(w) {
			out = append(out, QueryTerm{Text: Stem(w)})
		}
	}
	return out
}

// NormalizeTerm lowercases, trims, and stems a single term; used by the
// KG's "normalized NLP term matching" (§4.2).
func NormalizeTerm(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	ws := Words(s)
	if len(ws) == 0 {
		return ""
	}
	stemmed := make([]string, 0, len(ws))
	for _, w := range ws {
		// Single letters are plural markers or list labels ("Vaccine(s)",
		// "option a"), never content-bearing in a node label.
		if IsStopword(w) || len(w) == 1 {
			continue
		}
		stemmed = append(stemmed, Stem(w))
	}
	if len(stemmed) == 0 {
		// all-stopword labels (rare) fall back to raw words
		return strings.Join(ws, " ")
	}
	return strings.Join(stemmed, " ")
}
