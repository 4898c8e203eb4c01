package search

import (
	"strings"
	"unicode/utf8"

	"covidkg/internal/textproc"
)

// snippetRadius is how many bytes of context a snippet keeps on each
// side of the first highlighted match.
const snippetRadius = 80

// makeSnippet excerpts text around the first query-term match and
// records every highlight span inside the excerpt. Returns ok=false when
// no term matches.
func makeSnippet(field, text string, hl *textproc.TermMatcher) (Snippet, bool) {
	var buf [64][2]int // spans rarely outgrow the stack
	spans := matchSpans(buf[:0], text, hl)
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
	// align to rune boundaries: a window edge that lands mid-rune slides
	// outward to the nearest lead byte so the excerpt is always valid
	// UTF-8 (the old ASCII-only check walked past entire non-Latin runs)
	for start > 0 && !utf8.RuneStart(text[start]) {
		start--
	}
	for end < len(text) && !utf8.RuneStart(text[end]) {
		end++
	}

	lead, tail := "", ""
	if start > 0 {
		lead = "…"
	}
	if end < len(text) {
		tail = "…"
	}
	// spans are sorted and disjoint, so those inside the window are a prefix
	n := 0
	for n < len(spans) && spans[n][1] <= end {
		n++
	}
	hls := make([][2]int, n)
	off := len(lead) - start
	for i := range hls {
		hls[i] = [2]int{spans[i][0] + off, spans[i][1] + off}
	}
	return Snippet{Field: field, Text: lead + text[start:end] + tail, Highlights: hls}, true
}

// matchSpans returns in dst (empty on entry) the sorted, de-overlapped
// byte spans of the query-term matches in text that a snippet can show:
// one pass over the tokens for all bare terms, one case-insensitive scan
// per quoted phrase, both reporting offsets in text's own bytes and both
// stopping at the excerpt's far edge — makeSnippet keeps nothing past
// it, and a field is mostly a whole body_text. The edge is known only
// once the first span is, and a phrase overlapping that span moves it,
// so the scans run to a limit that grows until it covers the edge;
// every span starting before the limit is collected.
func matchSpans(dst [][2]int, text string, m *textproc.TermMatcher) [][2]int {
	// past the first span's end; rune alignment adds at most UTFMax-1
	const reach = snippetRadius + utf8.UTFMax
	var sc textproc.Scanner
	sc.Reset(text)
	held, heldMatch := false, false // a token read but not yet inside the limit
	var fromBuf [4]int
	from := fromBuf[:] // per phrase: where its scan resumes
	if n := len(m.Phrases()); n > len(from) {
		from = make([]int, n)
	}
	for limit := len(text); ; {
		for {
			if !held {
				tok := sc.Next()
				if tok == nil {
					break
				}
				held, heldMatch = true, m.MatchToken(tok)
			}
			if sc.Start >= limit {
				break
			}
			if held = false; heldMatch {
				if dst = append(dst, [2]int{sc.Start, sc.End}); len(dst) == 1 {
					limit = min(limit, sc.End+reach) // the first match: no edge lies further, phrases aside
				}
			}
		}
		for i, p := range m.Phrases() {
			// a match is as many runes as p: at most 4 bytes a pattern byte
			hi := min(len(text), limit+4*len(p))
			for hi < len(text) && !utf8.RuneStart(text[hi]) {
				hi++
			}
			for s, e := textproc.IndexFold(text[:hi], p, from[i]); s >= 0 && s < limit; s, e = textproc.IndexFold(text[:hi], p, e) {
				dst = append(dst, [2]int{s, e})
				from[i] = e
			}
		}
		if len(dst) == 0 {
			return nil
		}
		sortSpans(dst)
		dst = dedupeSpans(dst)
		if edge := dst[0][1] + reach; edge > limit && limit < len(text) {
			limit = edge
			continue
		}
		return dst
	}
}

func sortSpans(spans [][2]int) {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j][0] < spans[j-1][0]; j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

func dedupeSpans(spans [][2]int) [][2]int {
	out := spans[:1]
	for _, sp := range spans[1:] {
		last := &out[len(out)-1]
		if sp[0] < last[1] {
			if sp[1] > last[1] {
				last[1] = sp[1]
			}
			continue
		}
		out = append(out, sp)
	}
	return out
}

// HighlightMarked renders a snippet's text with [[ ]] markers around
// highlights — the plain-text analogue of the UI's red highlighting,
// useful for terminals and tests.
func (s Snippet) HighlightMarked() string {
	if len(s.Highlights) == 0 {
		return s.Text
	}
	var b strings.Builder
	prev := 0
	for _, h := range s.Highlights {
		if h[0] < prev || h[1] > len(s.Text) {
			continue
		}
		b.WriteString(s.Text[prev:h[0]])
		b.WriteString("[[")
		b.WriteString(s.Text[h[0]:h[1]])
		b.WriteString("]]")
		prev = h[1]
	}
	b.WriteString(s.Text[prev:])
	return b.String()
}
