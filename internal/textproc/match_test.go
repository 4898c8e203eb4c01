package textproc

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"covidkg/internal/cord19"
)

// refTokenize is Tokenize as it stood before it was rebuilt on the
// Scanner — one rune loop, strings.Trim, strings.ToLower — kept verbatim
// as the reference the scanner is held to.
func refTokenize(text string) []Token {
	var out []Token
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		raw := text[start:end]
		raw = strings.Trim(raw, "-'")
		if raw != "" {
			out = append(out, Token{Text: strings.ToLower(raw), Start: start, End: end})
		}
		start = -1
	}
	for i, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if start < 0 {
				start = i
			}
		case (r == '-' || r == '\'') && start >= 0:
			// keep internal connectors; trailing ones are trimmed at flush
		default:
			flush(i)
		}
	}
	flush(len(text))
	return out
}

// assertScannerEqualsReference holds the Scanner (through Tokenize,
// which only copies its tokens out) to the reference, token for token.
func assertScannerEqualsReference(t *testing.T, text string) {
	t.Helper()
	want, got := refTokenize(text), Tokenize(text)
	if len(want) != len(got) {
		t.Fatalf("%q: scanner yields %d tokens, reference %d\nscanner:   %v\nreference: %v", text, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%q: token %d: scanner %+v, reference %+v", text, i, got[i], want[i])
		}
	}
}

// scannerCorpus are hand-picked edge cases: connectors at every
// position, digits, folds that change byte length, non-Latin scripts,
// invalid UTF-8, and a token longer than the scanner's inline buffer.
var scannerCorpus = []string{
	"",
	" ",
	"COVID-19 and SARS-CoV-2; b.1.1.7 (don't)",
	"-lead trail- --both-- 'quoted' it's rock-'n'-roll ''",
	"a-'-b x--y z'",
	"Ünïcödé ΑΒΓδ Δ-variant 新冠病毒 疫苗-19 ﬁne",
	"İstanbul \u212aelvin Ⱥ ǅ",
	"bad \xff\xfe bytes\x80mid \xe2\x82 truncated",
	"tab\tnew\nline | cell | 3.5% (n=12) ±0.4",
	strings.Repeat("Antidisestablishmentarianism", 5) + " " + strings.Repeat("É", 70),
	"ends-with-connector-",
	"١٢٣ Arabic-Indic digits ⅷ Ⅷ",
}

func TestScannerEqualsReference(t *testing.T) {
	for _, text := range scannerCorpus {
		assertScannerEqualsReference(t, text)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		assertScannerEqualsReference(t, randomText(rng, 1+rng.Intn(40)))
	}
}

func FuzzScanner(f *testing.F) {
	for _, s := range scannerCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		assertScannerEqualsReference(t, text)
	})
}

// randomPieces are the building blocks of randomized texts: words that
// stem, capitalized and hyphenated forms, digits, other scripts,
// stray connectors and separators.
var randomPieces = []string{
	"vaccine", "Vaccination", "VACCINES", "immunization", "immunized",
	"covid-19", "COVID-19", "SARS-CoV-2", "b.1.1.7", "coronavirus",
	"patients", "patient's", "hospitalization", "relational", "possibility",
	"studying", "studies", "hopping", "filing", "agreed", "caresses", "ponies",
	"transmission", "spread", "fever", "pyrexia", "infer", "inferred",
	"don't", "rock-'n'-roll", "trail-", "-lead", "--", "'", "3.5%", "2021", "n=12",
	"αβγ", "Δ-variant", "新冠病毒", "疫苗", "Ünïcödé", "ÉCOLE",
	" ", "  ", ", ", ". ", " | ", "\n", "(", ")", ";", "/",
}

func randomText(rng *rand.Rand, pieces int) string {
	var b strings.Builder
	for i := 0; i < pieces; i++ {
		b.WriteString(randomPieces[rng.Intn(len(randomPieces))])
		if rng.Intn(3) > 0 {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

func TestScannerZeroAllocs(t *testing.T) {
	text := strings.Repeat("Vaccination of Elderly PATIENTS (COVID-19, SARS-CoV-2) reduced hospitalization; Ünïcödé 新冠病毒 too. ", 50)
	n := 0
	allocs := testing.AllocsPerRun(20, func() {
		var sc Scanner
		sc.Reset(text)
		for tok := sc.Next(); tok != nil; tok = sc.Next() {
			n += len(tok)
		}
	})
	if allocs != 0 {
		t.Fatalf("scanner allocates %.0f times per text, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("scanner yielded nothing")
	}
}

// corpusVocabulary is every distinct word of a generated cord19 corpus,
// the stopword list and the synonym table, plus each of them under the
// suffixes Porter rewrites — the words query-time matching meets.
func corpusVocabulary() []string {
	seen := map[string]bool{}
	add := func(text string) {
		for _, w := range Words(text) {
			seen[w] = true
		}
	}
	for _, p := range cord19.NewGenerator(42).Corpus(300) {
		add(p.Title)
		add(p.Abstract)
		add(p.BodyText)
		for _, c := range p.FigureCaptions {
			add(c)
		}
		for _, tb := range p.Tables {
			add(tb.Caption)
			for _, row := range tb.Rows {
				add(strings.Join(row, " "))
			}
		}
	}
	for w := range stopwords {
		seen[w] = true
	}
	for _, g := range synonymGroups {
		for _, w := range g {
			add(w)
		}
	}
	suffixes := []string{"s", "es", "ies", "sses", "ed", "eed", "ing", "y", "ational",
		"tional", "enci", "anci", "izer", "abli", "alli", "entli", "eli", "ousli",
		"ization", "ation", "ator", "alism", "iveness", "fulness", "ousness",
		"aliti", "iviti", "biliti", "ability", "ibility", "icate", "ative", "alize",
		"iciti", "ical", "ful", "ness", "al", "ance", "ence", "er", "ic", "able",
		"ible", "ant", "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
		"ous", "ive", "ize", "e", "ll", "ly", "ingly", "edly", "ated", "izing"}
	base := make([]string, 0, len(seen))
	for w := range seen {
		base = append(base, w)
	}
	for _, w := range base {
		for _, suf := range suffixes {
			seen[w+suf] = true
		}
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	return out
}

// checkStemShape asserts the three facts MatchToken's prefilter rests
// on: Stem keeps the first byte, never lengthens, and leaves all but
// its own last two bytes a prefix of the word.
func checkStemShape(t *testing.T, w string) {
	t.Helper()
	s := Stem(w)
	if s == "" || s[0] != w[0] {
		t.Fatalf("Stem(%q) = %q changes the first byte", w, s)
	}
	if len(s) > len(w) {
		t.Fatalf("Stem(%q) = %q is longer than the word", w, s)
	}
	if n := len(s) - 2; n > 0 && s[:n] != w[:n] {
		t.Fatalf("Stem(%q) = %q rewrites more than its last two bytes", w, s)
	}
}

func TestStemPrefilterSound(t *testing.T) {
	vocab := corpusVocabulary()
	if len(vocab) < 5000 {
		t.Fatalf("vocabulary has only %d words", len(vocab))
	}
	for _, w := range vocab {
		checkStemShape(t, w)
	}
	// random lowercase words reach suffix combinations no corpus has
	rng := rand.New(rand.NewSource(11))
	letters := "aeiouybcdlnrstvz"
	for i := 0; i < 200000; i++ {
		b := make([]byte, 3+rng.Intn(12))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		checkStemShape(t, string(b))
	}
}

// TestMatchTokenEqualsRule pins the compiled matcher to the rule it
// replaces, token by token: Stem(tok)==stem || HasPrefix(tok, stem),
// over every query stem (and its synonym stems).
func TestMatchTokenEqualsRule(t *testing.T) {
	vocab := corpusVocabulary()
	stemOf := make([]string, len(vocab))
	for i, w := range vocab {
		stemOf[i] = Stem(w)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 60; round++ {
		var terms []QueryTerm
		for i := 0; i < 1+rng.Intn(3); i++ {
			terms = append(terms, QueryTerm{Text: Stem(vocab[rng.Intn(len(vocab))])})
		}
		for _, syn := range []bool{false, true} {
			var stems []string
			for _, qt := range terms {
				stems = append(stems, qt.Text)
				if syn {
					stems = append(stems, SynonymStems(qt.Text)...)
				}
			}
			m := CompileTerms(terms, syn)
			for i, tok := range vocab {
				want := false
				for _, st := range stems {
					want = want || stemOf[i] == st || strings.HasPrefix(tok, st)
				}
				if got := m.MatchToken([]byte(tok)); got != want {
					t.Fatalf("MatchToken(%q) over stems %v = %v, rule says %v", tok, stems, got, want)
				}
			}
		}
	}
}

// foldKeepsOffsets reports whether lowercasing s keeps every rune's
// byte length, i.e. offsets into strings.ToLower(s) are offsets into s.
func foldKeepsOffsets(s string) bool {
	for i, r := range s {
		_, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || utf8.RuneLen(unicode.ToLower(r)) != size {
			return false
		}
	}
	return true
}

func assertIndexFold(t *testing.T, s, phrase string) {
	t.Helper()
	lower := strings.ToLower(phrase)
	start, end := IndexFold(s, lower, 0)
	if lower == "" {
		if start != -1 {
			t.Fatalf("IndexFold(%q, \"\") = %d, want -1", s, start)
		}
		return
	}
	if (start >= 0) != strings.Contains(strings.ToLower(s), lower) && utf8.ValidString(s) {
		t.Fatalf("IndexFold(%q, %q) = %d, but Contains on the lowered text says %v", s, lower, start, start < 0)
	}
	if start < 0 {
		return
	}
	if got := strings.ToLower(s[start:end]); got != lower {
		t.Fatalf("IndexFold(%q, %q) = [%d,%d) covers %q, which folds to %q", s, lower, start, end, s[start:end], got)
	}
	if foldKeepsOffsets(s) {
		if want := strings.Index(strings.ToLower(s), lower); start != want || end != want+len(lower) {
			t.Fatalf("IndexFold(%q, %q) = [%d,%d), want [%d,%d)", s, lower, start, end, want, want+len(lower))
		}
	}
}

func TestIndexFold(t *testing.T) {
	for _, c := range []struct {
		s, lower   string
		from       int
		start, end int
	}{
		{"Spike Protein", "spike protein", 0, 0, 13},
		{"the SPIKE protein and the spike PROTEIN", "spike protein", 5, 26, 39},
		{"İİ spike", "spike", 0, 5, 10},           // İ (2 bytes) folds to i (1 byte)
		{"\u212a\u212a spike", "spike", 0, 7, 12}, // Kelvin sign (3 bytes) folds to k
		{"10 \u212a rise", "k rise", 0, 3, 11},    // match starts on the folding rune
		{"ÉCOLE normale", "école", 0, 0, 6},       // non-ASCII pattern
		{"spik", "spike", 0, -1, -1},              // text ends inside the pattern
		{"anything", "", 0, -1, -1},               // empty pattern matches nothing
		{"aaa", "aa", 1, 1, 3},                    // from is honoured
		{"x\xffspike", "spike", 0, 2, 7},          // invalid byte before the match
		{"naïve Naïve", "naïve", 1, 7, 13},        // rune-start stepping
		{"ΣΊΣΥΦΟΣ σίσυφοσ", "σίσυφοσ", 0, 0, 14},  // per-rune fold, no final-sigma rule
	} {
		if s, e := IndexFold(c.s, c.lower, c.from); s != c.start || e != c.end {
			t.Errorf("IndexFold(%q, %q, %d) = [%d,%d), want [%d,%d)", c.s, c.lower, c.from, s, e, c.start, c.end)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		text := randomText(rng, 1+rng.Intn(30))
		// a phrase cut from the text itself (so it usually occurs), recased
		a := rng.Intn(len(text))
		for a > 0 && !utf8.RuneStart(text[a]) {
			a--
		}
		b := a + rng.Intn(len(text)-a+1)
		for b < len(text) && !utf8.RuneStart(text[b]) {
			b++
		}
		phrase := text[a:b]
		if rng.Intn(2) == 0 {
			phrase = strings.ToUpper(phrase)
		}
		assertIndexFold(t, text, phrase)
		assertIndexFold(t, "İ\u212a "+text, phrase)
	}
}

func FuzzIndexFold(f *testing.F) {
	f.Add("the SPIKE protein", "spike protein")
	f.Add("İİİ spike protein", "Spike")
	f.Add("10 \u212a rise", "k rise")
	f.Add("x\xffy", "y")
	f.Fuzz(func(t *testing.T, s, phrase string) {
		assertIndexFold(t, s, phrase)
	})
}

func TestMatchTextPhrasesAndEmptyStem(t *testing.T) {
	m := CompileTerms(ParseQuery(`"spike protein" ventilators`), false)
	for text, want := range map[string]bool{
		"The SPIKE Protein binds": true,
		"spike-protein":           false,
		"a ventilator was used":   true,
		"vents":                   false,
		"":                        false,
		strings.Repeat("\u212a", 10) + " spike protein": true,
	} {
		if got := m.MatchText(text); got != want {
			t.Errorf("MatchText(%q) = %v, want %v", text, got, want)
		}
	}
	// an empty stem is a prefix of every token (ParseQuery never emits
	// one, but the rule is HasPrefix and must not index out of range)
	if !CompileTerms([]QueryTerm{{Text: ""}}, true).MatchText("x") {
		t.Error("empty stem should match any token")
	}
	// synonyms only when compiled in
	q := ParseQuery("vaccine")
	if CompileTerms(q, false).MatchText("immunization programme") {
		t.Error("synonym matched without synonyms compiled in")
	}
	if !CompileTerms(q, true).MatchText("immunization programme") {
		t.Error("synonym did not match with synonyms compiled in")
	}
}
