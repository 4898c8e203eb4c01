package textproc

import (
	"hash/maphash"
	"strings"
	"sync/atomic"
)

// Stem applies the Porter (1980) stemming algorithm to a single
// lowercase word. Words of length <= 2 are returned unchanged, as in the
// original algorithm. Non-ASCII-letter characters (digits, hyphens) make
// a word ineligible for stemming and it is returned as-is; this keeps
// identifiers like "covid-19" or "b.1.1.7" stable in the index.
//
// Stem is a pure function, so it answers from a memo when it can. The
// result never shares memory with word, and equal words may share one
// result.
func Stem(word string) string {
	if len(word) > memoMaxWord {
		return porter(strings.Clone(word))
	}
	slot := &stemMemo[maphash.String(memoSeed, word)&(memoSlots-1)]
	if e := slot.Load(); e != nil && e.word == word {
		return e.stem
	}
	return remember(slot, strings.Clone(word))
}

// stemToken is Stem of a token as a Scanner yields it: a memo hit
// converts and allocates nothing.
func stemToken(tok []byte) string {
	if len(tok) > memoMaxWord {
		return porter(string(tok))
	}
	slot := &stemMemo[maphash.Bytes(memoSeed, tok)&(memoSlots-1)]
	if e := slot.Load(); e != nil && e.word == string(tok) {
		return e.stem
	}
	return remember(slot, string(tok))
}

// The memo is direct-mapped: a word hashes to one slot, and a new word
// replaces whatever the slot held. An entry keeps its whole word, so a
// collision costs a recompute and can never answer a wrong stem. Its
// size is fixed, so what it retains is bounded: memoSlots entries of at
// most memoMaxWord bytes each, whatever the text seen. Slots are
// atomic pointers to immutable entries, so readers take no lock.
const (
	memoSlots   = 1 << 16
	memoMaxWord = 64 // longer words (rare; they spill the Scanner's buffer too) skip the memo
)

type stemEntry struct{ word, stem string }

var (
	memoSeed = maphash.MakeSeed()
	stemMemo [memoSlots]atomic.Pointer[stemEntry]
)

// remember stems word, which the caller owns, into slot. A word porter
// leaves unchanged is its own stem, so the stem never aliases the
// caller's text either.
func remember(slot *atomic.Pointer[stemEntry], word string) string {
	stem := porter(word)
	slot.Store(&stemEntry{word: word, stem: stem})
	return stem
}

// porter is the uncached Porter algorithm behind Stem.
func porter(word string) string {
	if len(word) <= 2 {
		return word
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c < 'a' || c > 'z' {
			return word
		}
	}
	w := []byte(word)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return string(w)
}

// isConsonant reports whether w[i] is a consonant in Porter's sense:
// a letter other than a/e/i/o/u, with 'y' a consonant only when it does
// not follow a consonant.
func isConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(w, i-1)
	}
	return true
}

// measure computes m, the number of VC (vowel-consonant) sequences in
// w[:end].
func measure(w []byte, end int) int {
	m := 0
	i := 0
	// skip initial consonants
	for i < end && isConsonant(w, i) {
		i++
	}
	for {
		// skip vowels
		for i < end && !isConsonant(w, i) {
			i++
		}
		if i >= end {
			return m
		}
		// skip consonants
		for i < end && isConsonant(w, i) {
			i++
		}
		m++
		if i >= end {
			return m
		}
	}
}

// containsVowel reports whether w[:end] contains a vowel.
func containsVowel(w []byte, end int) bool {
	for i := 0; i < end; i++ {
		if !isConsonant(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether w ends with a doubled consonant.
func endsDoubleConsonant(w []byte) bool {
	n := len(w)
	if n < 2 || w[n-1] != w[n-2] {
		return false
	}
	return isConsonant(w, n-1)
}

// endsCVC reports whether w[:end] ends consonant-vowel-consonant where the
// final consonant is not w, x, or y.
func endsCVC(w []byte, end int) bool {
	if end < 3 {
		return false
	}
	if !isConsonant(w, end-3) || isConsonant(w, end-2) || !isConsonant(w, end-1) {
		return false
	}
	switch w[end-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(w []byte, s string) bool {
	return len(w) >= len(s) && string(w[len(w)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r if the measure of the stem
// (before s) is > threshold. Returns the new word and whether it applied.
func replaceSuffix(w []byte, s, r string, threshold int) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	stemLen := len(w) - len(s)
	if measure(w, stemLen) <= threshold {
		return w, true // suffix matched but condition failed: rule consumed
	}
	out := make([]byte, 0, stemLen+len(r))
	out = append(out, w[:stemLen]...)
	out = append(out, r...)
	return out, true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w, len(w)-3) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	applied := false
	if hasSuffix(w, "ed") && containsVowel(w, len(w)-2) {
		w = w[:len(w)-2]
		applied = true
	} else if hasSuffix(w, "ing") && containsVowel(w, len(w)-3) {
		w = w[:len(w)-3]
		applied = true
	}
	if !applied {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case endsDoubleConsonant(w) && !hasSuffix(w, "l") && !hasSuffix(w, "s") && !hasSuffix(w, "z"):
		return w[:len(w)-1]
	case measure(w, len(w)) == 1 && endsCVC(w, len(w)):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && containsVowel(w, len(w)-1) {
		out := make([]byte, len(w))
		copy(out, w)
		out[len(out)-1] = 'i'
		return out
	}
	return w
}

var step2Rules = []struct{ suffix, repl string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
	{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
	{"alli", "al"}, {"entli", "ent"}, {"eli", "e"},
	{"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"},
	{"fulness", "ful"}, {"ousness", "ous"}, {"aliti", "al"},
	{"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	for _, r := range step2Rules {
		if out, ok := replaceSuffix(w, r.suffix, r.repl, 0); ok {
			return out
		}
	}
	return w
}

var step3Rules = []struct{ suffix, repl string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"},
	{"iciti", "ic"}, {"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, r := range step3Rules {
		if out, ok := replaceSuffix(w, r.suffix, r.repl, 0); ok {
			return out
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		stemLen := len(w) - len(s)
		if s == "ion" {
			// extra condition: stem must end in s or t
			if stemLen == 0 || (w[stemLen-1] != 's' && w[stemLen-1] != 't') {
				return w
			}
		}
		if measure(w, stemLen) > 1 {
			return w[:stemLen]
		}
		return w
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	m := measure(w, len(w)-1)
	if m > 1 {
		return w[:len(w)-1]
	}
	if m == 1 && !endsCVC(w, len(w)-1) {
		return w[:len(w)-1]
	}
	return w
}

func step5b(w []byte) []byte {
	if hasSuffix(w, "ll") && measure(w, len(w)) > 1 {
		return w[:len(w)-1]
	}
	return w
}

// StemPhrase stems each whitespace-separated word of a phrase.
func StemPhrase(phrase string) string {
	words := strings.Fields(strings.ToLower(phrase))
	for i, w := range words {
		words[i] = Stem(w)
	}
	return strings.Join(words, " ")
}
