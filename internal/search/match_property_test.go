package search

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/textproc"
)

// matchPieces build randomized texts for the differential tests: words
// that stem (and their synonyms), capitalized and hyphenated forms,
// apostrophes, digits, Greek and CJK, stray leading/trailing connectors
// and every kind of separator.
var matchPieces = []string{
	"vaccine", "Vaccination", "VACCINES", "immunization", "Immunized", "inoculation",
	"covid-19", "COVID-19", "SARS-CoV-2", "b.1.1.7", "coronavirus", "ncov",
	"patients", "patient's", "hospitalization", "relational", "possibility",
	"studying", "studies", "hopping", "filing", "agreed", "caresses", "ponies",
	"transmission", "spread", "fever", "pyrexia", "infer", "inferred", "mask", "masks",
	"spike", "protein", "Spike Protein", "side effect", "physician", "doctor",
	"don't", "rock-'n'-roll", "trail-", "-lead", "--", "'", "3.5%", "2021", "n=12",
	"αβγ", "Δ-variant", "ΣΊΣΥΦΟΣ", "新冠病毒", "疫苗", "Ünïcödé", "ÉCOLE",
	" ", "  ", ", ", ". ", " | ", "\n", "(", ")", ";", "/",
}

func randomMatchText(rng *rand.Rand, pieces int) string {
	var b strings.Builder
	for i := 0; i < pieces; i++ {
		b.WriteString(matchPieces[rng.Intn(len(matchPieces))])
		if rng.Intn(3) > 0 {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// randomMatchQuery draws 1–3 query items: a bare word, or a quoted
// phrase cut from the text at token boundaries (so it usually occurs)
// and re-cased.
func randomMatchQuery(rng *rand.Rand, text string) string {
	toks := textproc.Tokenize(text)
	var parts []string
	for i := 0; i < 1+rng.Intn(3); i++ {
		if len(toks) > 0 && rng.Intn(3) == 0 {
			a := rng.Intn(len(toks))
			b := a + rng.Intn(3)
			if b >= len(toks) {
				b = len(toks) - 1
			}
			phrase := text[toks[a].Start:toks[b].End]
			if rng.Intn(2) == 0 {
				phrase = strings.ToUpper(phrase)
			}
			parts = append(parts, `"`+phrase+`"`)
			continue
		}
		parts = append(parts, strings.TrimSpace(matchPieces[rng.Intn(len(matchPieces))]))
	}
	return strings.Join(parts, " ")
}

// foldKeepsOffsets reports whether lowercasing s keeps every rune's
// byte length — the texts on which the reference's phrase offsets (taken
// in strings.ToLower(text)) are offsets into text, so new ≡ reference.
func foldKeepsOffsets(s string) bool {
	for i, r := range s {
		_, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || utf8.RuneLen(unicode.ToLower(r)) != size {
			return false
		}
	}
	return true
}

// assertMatchEqualsReference holds the compiled matcher to the
// reference on one (text, query): spans (as far as a snippet shows
// them), snippet, and both verify verdicts. On a text whose folds move offsets only the properties the
// reference gets wrong are checked instead: spans in range and ordered,
// phrase highlights folding to the phrase, excerpts valid UTF-8.
func assertMatchEqualsReference(t *testing.T, e *Engine, text string, terms []textproc.QueryTerm) {
	t.Helper()
	hl := textproc.CompileTerms(terms, false)
	spans := matchSpans(nil, text, hl)
	sn, ok := makeSnippet(FieldAbstract, text, hl)

	// verify verdicts never depend on offsets
	wantPlain, wantSyn := false, false
	for _, qt := range terms {
		wantPlain = wantPlain || refTermMatches(qt, text)
		wantSyn = wantSyn || e.refTermMatchesSyn(qt, text)
	}
	if utf8.ValidString(text) { // the reference lowers invalid bytes to U+FFFD first
		if got := hl.MatchText(text); got != wantPlain {
			t.Fatalf("MatchText(%q) for %v = %v, reference %v", text, terms, got, wantPlain)
		}
		if got := e.verifyMatcher(terms).MatchText(text); got != wantSyn {
			t.Fatalf("verify MatchText(%q) for %v = %v, reference %v", text, terms, got, wantSyn)
		}
		if (len(spans) > 0) != wantPlain || ok != wantPlain {
			t.Fatalf("%q for %v: %d spans, snippet %v, but reference match verdict %v", text, terms, len(spans), ok, wantPlain)
		}
	}

	if foldKeepsOffsets(text) {
		// matchSpans stops at the far edge of the excerpt: up to there it
		// must be the reference's spans exactly
		if want := refMatchSpans(text, terms); len(want) > 0 {
			edge := want[0][1] + snippetRadius + utf8.UTFMax - 1
			within := func(spans [][2]int) [][2]int {
				n := 0
				for n < len(spans) && spans[n][1] <= edge {
					n++
				}
				return spans[:n]
			}
			if !reflect.DeepEqual(within(spans), within(want)) {
				t.Fatalf("matchSpans(%q) for %v\n got %v\nwant %v (up to byte %d)", text, terms, spans, want, edge)
			}
		}
		wantSn, wantOK := refMakeSnippet(FieldAbstract, text, terms)
		if ok != wantOK || !reflect.DeepEqual(sn, wantSn) {
			t.Fatalf("makeSnippet(%q) for %v\n got %+v %v\nwant %+v %v", text, terms, sn, ok, wantSn, wantOK)
		}
		return
	}
	prev := 0
	for _, sp := range spans {
		if sp[0] < prev || sp[1] <= sp[0] || sp[1] > len(text) {
			t.Fatalf("matchSpans(%q) for %v: span %v out of order or range in %v", text, terms, sp, spans)
		}
		prev = sp[1]
	}
	if len(terms) == 1 && terms[0].Exact {
		for _, sp := range spans {
			if got := strings.ToLower(text[sp[0]:sp[1]]); got != terms[0].Text {
				t.Fatalf("phrase %q highlighted at %v = %q in %q", terms[0].Text, sp, text[sp[0]:sp[1]], text)
			}
		}
	}
	if ok && utf8.ValidString(text) {
		if !utf8.ValidString(sn.Text) || !utf8.ValidString(sn.HighlightMarked()) {
			t.Fatalf("snippet of %q for %v is not valid UTF-8: %q", text, terms, sn.HighlightMarked())
		}
	}
}

func TestMatchEqualsReferenceRandomized(t *testing.T) {
	e := testEngine(t)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 4000; i++ {
		text := randomMatchText(rng, 1+rng.Intn(60))
		if i%50 == 0 { // some texts whose folds shrink (İ) and grow (Ⱥ) runes
			text = "İK " + text + " Ⱥ " + text
		}
		terms := textproc.ParseQuery(randomMatchQuery(rng, text))
		if len(terms) == 0 {
			continue
		}
		if i%2 == 1 {
			e.rankOpts.Store(&RankOptions{NoSynonyms: true})
		} else {
			e.rankOpts.Store(&RankOptions{})
		}
		assertMatchEqualsReference(t, e, text, terms)
	}
}

// TestVerifyPredicateEqualsReference: over generated publications (plus
// one with non-Latin text in every field) the fallback's $match
// predicate agrees with the reference for every engine's field set,
// with and without synonyms — including documents only a synonym or a
// table cell admits.
func TestVerifyPredicateEqualsReference(t *testing.T) {
	e := testEngine(t)
	var docs []jsondoc.Doc
	for _, p := range cord19.NewGenerator(5).Corpus(60) {
		docs = append(docs, p.Doc())
	}
	docs = append(docs, pub("x1", "Δ-variant ΣΊΣΥΦΟΣ", "新冠病毒 疫苗 immunization", "Ünïcödé body",
		table("Spike Protein | doses", []string{"Pfizer-BioNTech", "", "3.5%"}, []string{"physician", "b.1.1.7"})))
	fieldSets := [][]string{
		allFields,
		{FieldTableCaption, FieldTableCell},
		{FieldTitle}, {FieldAbstract}, {FieldTableCaption}, {FieldFigureCaption},
	}
	queries := []string{"vaccine", "immunization dose", `"spike protein"`, `"side effects" fever`,
		"doctor", "covid-19", "pfizer-biontech", `"3.5%"`, "xylophone", `"δ-variant" masks`,
		"transmission ventilator", `"b.1.1.7"`, "疫苗", `"| doses"`}
	for _, noSyn := range []bool{false, true} {
		e.rankOpts.Store(&RankOptions{NoSynonyms: noSyn})
		for _, q := range queries {
			terms := textproc.ParseQuery(q)
			vm := e.verifyMatcher(terms)
			for _, d := range docs {
				for _, fs := range fieldSets {
					got := anyTermInFields(d, vm, fs...)
					if want := e.refAnyTermInFields(d, terms, fs...); got != want {
						t.Fatalf("anyTermInFields(%s, %q, %v, noSyn=%v) = %v, reference %v",
							d.GetString("_id"), q, fs, noSyn, got, want)
					}
				}
			}
		}
	}
}

// matchSpansSeeds seed FuzzMatchSpans (and run as plain cases under
// `go test -run Fuzz`).
var matchSpansSeeds = [][2]string{
	{"Vaccination of elderly patients reduced COVID-19 hospitalization.", `vaccine "covid-19" patients`},
	{"The SPIKE protein binds; the spike-protein does not.", `"spike protein"`},
	{"trail- -lead it's rock-'n'-roll don't", `trail "rock-'n'-roll" lead`},
	{"αβγ Δ-variant 新冠病毒 疫苗 b.1.1.7", `"δ-variant" 疫苗 b.1.1.7`},
	{strings.Repeat("İ", 200) + " spike protein", `"spike protein"`},
	{strings.Repeat("K", 10) + " spike protein", `"spike protein"`},
	{"Ⱥ grows under folding: spike protein", `"spike protein" fold`},
	{"bad \xff bytes \xe2\x82 spike", `spike "bytes"`},
	{"aaaa aaaa", `"aa" a`},
	{"", "x"},
	// matches far past the excerpt, and phrases that start before the first
	// token match: one ending on it, one reaching past the token-only edge
	{farMatchText, `vaccine "spike protein"`},
	{farMatchText, `vaccine "protein vaccine"`},
	{farMatchText, `vaccine "` + strings.ToLower(farMatchText[6:150]) + `" filler`},
}

var farMatchText = "Spike protein vaccine " + strings.Repeat("filler words ", 40) + "vaccine and spike protein again"

// TestMatchSpansStopAtTheExcerpt: matches a snippet cannot show are not
// scanned for — the kernel returns the spans up to the excerpt's edge
// and nothing of the rest of the field.
func TestMatchSpansStopAtTheExcerpt(t *testing.T) {
	hl := textproc.CompileTerms(textproc.ParseQuery(`vaccine "spike protein"`), false)
	all := refMatchSpans(farMatchText, textproc.ParseQuery(`vaccine "spike protein"`))
	got := matchSpans(nil, farMatchText, hl)
	if want := [][2]int{{0, 13}, {14, 21}}; len(all) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("matchSpans = %v, want %v of the field's %v", got, want, all)
	}
}

func FuzzMatchSpans(f *testing.F) {
	for _, s := range matchSpansSeeds {
		f.Add(s[0], s[1])
	}
	e := NewEngine(docstore.Open().Collection("pubs"))
	f.Fuzz(func(t *testing.T, text, query string) {
		if terms := textproc.ParseQuery(query); len(terms) > 0 {
			assertMatchEqualsReference(t, e, text, terms)
		}
	})
}

// TestPhraseHighlightsOriginalBytes is the regression test for phrase
// highlights landing on the wrong bytes: spans were found in
// strings.ToLower(text) and applied to text, so a fold that changes byte
// length before the phrase shifted them — left under "İ" (2 bytes → 1),
// right under the Kelvin sign (3 bytes → 1), where they split a rune and
// HighlightMarked emitted invalid UTF-8.
func TestPhraseHighlightsOriginalBytes(t *testing.T) {
	hl := textproc.CompileTerms(textproc.ParseQuery(`"spike protein"`), false)
	for name, text := range map[string]string{
		"shrinking fold far before": strings.Repeat("İ", 200) + " spike protein",
		"kelvin signs before":       strings.Repeat("K", 10) + " spike protein",
		"growing fold before":       strings.Repeat("Ⱥ", 30) + " Spike PROTEIN tail",
	} {
		sn, ok := makeSnippet(FieldAbstract, text, hl)
		if !ok {
			t.Fatalf("%s: no snippet", name)
		}
		if !utf8.ValidString(sn.Text) || !utf8.ValidString(sn.HighlightMarked()) {
			t.Fatalf("%s: excerpt is not valid UTF-8: %q", name, sn.HighlightMarked())
		}
		if len(sn.Highlights) != 1 {
			t.Fatalf("%s: highlights = %v, want exactly the phrase", name, sn.Highlights)
		}
		h := sn.Highlights[0]
		if got := strings.ToLower(sn.Text[h[0]:h[1]]); got != "spike protein" {
			t.Fatalf("%s: highlight %v covers %q, want the phrase", name, h, sn.Text[h[0]:h[1]])
		}
	}
}
