package textproc

import (
	"unicode"
	"unicode/utf8"
)

// asciiLower maps an ASCII letter or digit to its lowercase form and
// every other byte to 0, so one table lookup both classifies and folds
// the common case.
var asciiLower = func() (t [256]byte) {
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c)
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = byte(c)
		t[c-'a'+'A'] = byte(c)
	}
	return t
}()

// Scanner walks the tokens of one text without allocating: a token is a
// maximal run of letters, digits, or internal hyphens/apostrophes (so
// "COVID-19" and "don't" stay single tokens), lowercased into a buffer
// the scanner reuses. Tokenize is built on it.
type Scanner struct {
	// Start and End are the current token's byte offsets in the source.
	// End includes trailing connectors, which the token text omits.
	Start, End int

	src string
	pos int
	buf [64]byte // backs the token; only a longer one spills to the heap
}

// Reset points the scanner at the start of text.
func (s *Scanner) Reset(text string) { s.src, s.pos = text, 0 }

// Next advances to the next token and returns its lowercased text,
// valid until the following call, or nil when the text is exhausted.
func (s *Scanner) Next() []byte {
	src, i := s.src, s.pos
	tok, trimmed := s.buf[:0], 0 // trimmed: len(tok) at the last letter/digit
	for size := 1; i < len(src); i, size = i+size, 1 {
		c := src[i]
		if low := asciiLower[c]; low != 0 {
			if trimmed == 0 {
				s.Start = i
			}
			tok = append(tok, low)
			trimmed = len(tok)
			continue
		}
		if c >= utf8.RuneSelf {
			var r rune
			if r, size = utf8.DecodeRuneInString(src[i:]); unicode.IsLetter(r) || unicode.IsDigit(r) {
				if trimmed == 0 {
					s.Start = i
				}
				tok = utf8.AppendRune(tok, unicode.ToLower(r))
				trimmed = len(tok)
				continue
			}
		}
		if trimmed == 0 {
			continue // a separator, or a connector with no token to join
		}
		if c != '-' && c != '\'' {
			break
		}
		tok = append(tok, c) // kept only if a letter/digit follows
	}
	s.End, s.pos = i, i
	if trimmed == 0 {
		return nil
	}
	return tok[:trimmed]
}

// TermMatcher is a parsed query compiled for matching against stored
// text: built once per query, immutable, and safe to share across
// goroutines. It answers "does any query term occur here" — bare terms
// by the stemmed-regex rule (a token matches when its stem equals, or
// the token extends, the query stem), quoted phrases as case-insensitive
// substrings.
type TermMatcher struct {
	stems   []string  // bare terms, then (optionally) their synonym stems
	phrases []string  // quoted phrases, lowercased
	first   [256]bool // first bytes of stems: one lookup rejects most tokens
	any     bool      // an empty stem is a prefix of every token
}

// CompileTerms compiles parsed query terms. With synonyms set, a token
// matching a synonym stem of a bare term counts as matching the term —
// the verification rule; highlighting compiles without.
func CompileTerms(terms []QueryTerm, synonyms bool) *TermMatcher {
	m := &TermMatcher{}
	for _, t := range terms {
		if t.Exact {
			m.phrases = append(m.phrases, t.Text)
			continue
		}
		m.stems = append(m.stems, t.Text)
		if synonyms {
			m.stems = append(m.stems, SynonymStems(t.Text)...)
		}
	}
	for _, st := range m.stems {
		if st == "" {
			m.any = true
		} else {
			m.first[st[0]] = true
		}
	}
	return m
}

// Phrases returns the lowercased quoted phrases of the query.
func (m *TermMatcher) Phrases() []string { return m.phrases }

// MatchToken reports whether a non-empty lowercased token (as a Scanner
// yields it) matches any bare term: Stem(tok) == stem || HasPrefix(tok, stem).
//
// Stem is the expensive half, so it runs only when it could succeed.
// Porter rewrites suffixes only: Stem(w) keeps w's first byte, is never
// longer than w, and is a prefix of w followed by at most two rewritten
// bytes ("e", "i", or the "le" of -biliti → -ble). So Stem(tok) == stem
// needs len(tok) ≥ len(stem) and agreement on all but stem's last two
// bytes (argument in DESIGN.md "Query-time term matching"; checked by
// TestStemPrefilterSound). A token Stem returns unchanged can only
// equal the stem by being it — a prefix hit.
func (m *TermMatcher) MatchToken(tok []byte) bool {
	if m.any {
		return true
	}
	if !m.first[tok[0]] {
		return false
	}
	stemmed := ""
	for _, st := range m.stems {
		if len(tok) < len(st) || tok[0] != st[0] {
			continue
		}
		if string(tok[:len(st)]) == st {
			return true
		}
		if n := len(st) - 2; n > 1 && string(tok[1:n]) != st[1:n] {
			continue
		}
		if stemmed == "" {
			stemmed = stemToken(tok)
		}
		if stemmed == st {
			return true
		}
	}
	return false
}

// MatchText reports whether any query term occurs in text, stopping at
// the first hit.
func (m *TermMatcher) MatchText(text string) bool {
	for _, p := range m.phrases {
		if s, _ := IndexFold(text, p, 0); s >= 0 {
			return true
		}
	}
	if len(m.stems) == 0 {
		return false
	}
	var sc Scanner
	sc.Reset(text)
	for tok := sc.Next(); tok != nil; tok = sc.Next() {
		if m.MatchToken(tok) {
			return true
		}
	}
	return false
}

// IndexFold finds the first case-insensitive occurrence of lower (which
// must already be lowercase) in s at or after byte offset from, and
// returns its byte range in s itself, or (-1, -1). It compares
// rune by rune under unicode.ToLower, so it finds what
// strings.Index(strings.ToLower(s), lower) finds, but the offsets stay
// right when folding changes a rune's byte length ("İ", "K"). An empty
// pattern matches nothing.
func IndexFold(s, lower string, from int) (start, end int) {
	if lower == "" {
		return -1, -1
	}
	for i := from; i < len(s); i++ {
		if c := s[i]; c < utf8.RuneSelf {
			if c != lower[0] && c|0x20 != lower[0] {
				continue
			}
		} else if !utf8.RuneStart(c) {
			continue
		}
		if n := foldedPrefix(s[i:], lower); n >= 0 {
			return i, i + n
		}
	}
	return -1, -1
}

// foldedPrefix returns how many bytes of s lowercase to exactly lower,
// or -1 when s does not start with lower under case folding.
func foldedPrefix(s, lower string) int {
	i := 0
	for lower != "" {
		if i == len(s) {
			return -1
		}
		if c := s[i]; c < utf8.RuneSelf { // the common case, without decoding
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != lower[0] {
				return -1
			}
			i, lower = i+1, lower[1:]
			continue
		}
		want, wn := utf8.DecodeRuneInString(lower)
		r, n := utf8.DecodeRuneInString(s[i:])
		if unicode.ToLower(r) != want {
			return -1
		}
		i, lower = i+n, lower[wn:]
	}
	return i
}
