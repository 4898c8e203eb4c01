package textproc

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// refContentWords is ContentWords without the memo or the in-place
// scan: Tokenize, IsStopword, then the uncached Porter kernel.
func refContentWords(text string) []string {
	var out []string
	for _, t := range Tokenize(text) {
		if !IsStopword(t.Text) {
			out = append(out, porter(t.Text))
		}
	}
	return out
}

// aliases reports whether s's bytes lie within src's. A one-byte src
// is never reported: the runtime backs one-byte strings converted from
// bytes with one shared static table, whose entries pin no caller text.
func aliases(s, src string) bool {
	if len(s) == 0 || len(src) <= 1 {
		return false
	}
	p, base := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= base && p < base+uintptr(len(src))
}

// assertContentWordsEqualsReference runs ContentWords twice — the
// first call may miss the memo, the second hits it — and holds both to
// the reference, word for word, and to memory of their own.
func assertContentWordsEqualsReference(t *testing.T, text string) {
	t.Helper()
	want := refContentWords(text)
	for pass := 0; pass < 2; pass++ {
		got := ContentWords(text)
		if len(got) != len(want) {
			t.Fatalf("%q pass %d: %d words, reference %d\ngot:       %q\nreference: %q", text, pass, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q pass %d: word %d is %q, reference %q", text, pass, i, got[i], want[i])
			}
			if aliases(got[i], text) {
				t.Fatalf("%q pass %d: word %d (%q) aliases the text", text, pass, i, got[i])
			}
		}
	}
}

// unicodePieces add what randomPieces lacks: folds that change byte
// length (the Kelvin sign, dotted capital I), ligatures, capitalized
// stopwords, connector runs and invalid UTF-8.
var unicodePieces = []string{
	"K", "Kelvin", "İ", "İT", "İstanbul", "ﬁne", "ﬂu", "Œdema", "ǅ",
	"THE", "The", "OF", "And", "ET", "al.", "Fig", "AN",
	"-", "'", "--", "'-'", "a-", "-b", "x'y", "e-'",
	"\xff", "\xfe\xfd", "\xe2\x82", "\x80", "\xc3", "cov\xffid",
	"ß", "ΣΊΣΥΦΟΣ", "ﬀ", "ｆｕｌｌ", "١٢٣", "Ⅷ", "ⅷ",
	strings.Repeat("pneumonoultramicroscopicsilicovolcanoconiosis", 2),
}

// randomUnicodeText mixes corpus-like words with unicodePieces and
// arbitrary runes from every plane.
func randomUnicodeText(rng *rand.Rand, pieces int) string {
	var b strings.Builder
	for i := 0; i < pieces; i++ {
		switch rng.Intn(4) {
		case 0:
			b.WriteString(unicodePieces[rng.Intn(len(unicodePieces))])
		case 1:
			b.WriteRune(rune(rng.Intn(0x30000)))
		default:
			b.WriteString(randomPieces[rng.Intn(len(randomPieces))])
		}
		if rng.Intn(3) > 0 {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

func TestContentWordsMatchesReference(t *testing.T) {
	for _, text := range scannerCorpus {
		assertContentWordsEqualsReference(t, text)
	}
	for _, text := range unicodePieces {
		assertContentWordsEqualsReference(t, text)
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 3000; i++ {
		assertContentWordsEqualsReference(t, randomUnicodeText(rng, 1+rng.Intn(40)))
	}
}

func FuzzContentWords(f *testing.F) {
	for _, s := range scannerCorpus {
		f.Add(s)
	}
	for _, s := range unicodePieces {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		assertContentWordsEqualsReference(t, text)
	})
}

// TestStemMemoMatchesPorter stems every vocabulary word twice through
// both entry points, so each is checked on a memo miss and on a hit.
func TestStemMemoMatchesPorter(t *testing.T) {
	for _, w := range corpusVocabulary() {
		want := porter(w)
		for pass := 0; pass < 2; pass++ {
			if got := Stem(w); got != want {
				t.Fatalf("Stem(%q) pass %d = %q, porter %q", w, pass, got, want)
			}
			if got := stemToken([]byte(w)); got != want {
				t.Fatalf("stemToken(%q) pass %d = %q, porter %q", w, pass, got, want)
			}
		}
	}
}

// TestStemDoesNotAliasWord covers the words porter returns as they
// are — short, digits, hyphens — on a miss, on a hit, and past the
// memo's length limit.
func TestStemDoesNotAliasWord(t *testing.T) {
	long := strings.Repeat("covid-19-", 20)
	for _, w := range []string{"ml", "2021", "covid-19", "b.1.1.7", long, long[:memoMaxWord], long[:memoMaxWord+1]} {
		for pass := 0; pass < 2; pass++ {
			if got := Stem(w); got != w || aliases(got, w) {
				t.Fatalf("Stem(%q) pass %d = %q, aliases the word: %v", w, pass, got, aliases(got, w))
			}
		}
	}
}

// TestStemMemoConcurrent stems the vocabulary from 8 goroutines at once,
// in different orders, so slots are read while others replace them.
func TestStemMemoConcurrent(t *testing.T) {
	vocab := corpusVocabulary()
	want := make(map[string]string, len(vocab))
	for _, w := range vocab {
		want[w] = porter(w)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(vocab))
			for _, i := range order {
				w := vocab[i]
				got := Stem(w)
				if g%2 == 1 {
					got = stemToken([]byte(w))
				}
				if got != want[w] {
					errs <- w + " → " + got + ", porter " + want[w]
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

func TestContentWordsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ContentWords(benchSentence)
	if n := testing.AllocsPerRun(100, func() { ContentWords(benchSentence) }); n != 1 {
		t.Fatalf("a warmed ContentWords makes %.0f allocations, want 1 (the result)", n)
	}
}

func TestMatchTokenAllocs(t *testing.T) {
	// "happy" and "pony" pass the prefilter without being prefix hits,
	// so they reach the stem path
	m := CompileTerms(ParseQuery("happy ponies"), true)
	toks := [][]byte{[]byte("happy"), []byte("pony"), []byte("happen"), []byte("ponder"), []byte("hazard")}
	for _, tok := range toks {
		m.MatchToken(tok)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, tok := range toks {
			m.MatchToken(tok)
		}
	}); n != 0 {
		t.Fatalf("a warmed MatchToken makes %.1f allocations, want 0", n)
	}
}
