package preprocess

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSubstituteZeroForms(t *testing.T) {
	cases := map[string]string{
		"0":    "ZERO",
		"0.0":  "ZERO",
		"0.00": "ZERO",
		"50":   "INT", // the 0 in 50 is not ZERO — order matters (§3.4)
	}
	for in, want := range cases {
		if got := Substitute(in); got != want {
			t.Errorf("Substitute(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSubstituteRangeKeepsUnits(t *testing.T) {
	got := Substitute("5-10 mg")
	// the range collapses, the unit survives as a following word (the
	// paper: "we have not replaced the units following the range")
	if got != "RANGE mg" {
		t.Fatalf("Substitute(5-10 mg) = %q", got)
	}
	if got := Substitute("0.5–2.5"); got != "RANGE" {
		t.Fatalf("en-dash range = %q", got)
	}
	if got := Substitute("5 to 10"); got != "RANGE" {
		t.Fatalf("worded range = %q", got)
	}
}

func TestSubstituteNegatives(t *testing.T) {
	if got := Substitute("-5"); got != "NEG" {
		t.Fatalf("Substitute(-5) = %q", got)
	}
	// hyphenated words must not become NEG
	if got := Substitute("COVID-19"); got != "COVID-19" {
		t.Fatalf("Substitute(COVID-19) = %q", got)
	}
	if got := Substitute("double-blind"); got != "double-blind" {
		t.Fatalf("Substitute(double-blind) = %q", got)
	}
}

func TestSubstituteMagnitudeClasses(t *testing.T) {
	cases := map[string]string{
		"0.5":     "SMALLPOS",
		"0.001":   "SMALLPOS",
		"1":       "INT",
		"42":      "INT",
		"1000000": "INT",
		"1.5":     "FLOAT",
		"3.14159": "FLOAT",
	}
	for in, want := range cases {
		if got := Substitute(in); got != want {
			t.Errorf("Substitute(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSubstitutePercent(t *testing.T) {
	// §3.4: 5% and 0.5% are NOT replaced the same way
	if got := Substitute("5%"); got != "INT PERCENT" {
		t.Fatalf("Substitute(5%%) = %q", got)
	}
	if got := Substitute("0.5%"); got != "SMALLPOS PERCENT" {
		t.Fatalf("Substitute(0.5%%) = %q", got)
	}
	if got := Substitute("12.7 %"); got != "FLOAT PERCENT" {
		t.Fatalf("Substitute(12.7 %%) = %q", got)
	}
}

func TestSubstituteDates(t *testing.T) {
	for _, in := range []string{
		"5 January 2021",
		"January 5, 2021",
		"Jan 2021",
		"March 2020",
		"3rd December 2020",
	} {
		if got := Substitute(in); got != "DATE" {
			t.Errorf("Substitute(%q) = %q, want DATE", in, got)
		}
	}
	// mm/dd/yy is explicitly not handled by the paper: digits remain,
	// classified individually.
	got := Substitute("12/31/20")
	if strings.Contains(got, "DATE") {
		t.Errorf("numeric date should not become DATE: %q", got)
	}
}

func TestSubstituteComparisons(t *testing.T) {
	if got := Substitute("<5"); got != "LESS INT" {
		t.Fatalf("Substitute(<5) = %q", got)
	}
	if got := Substitute("p > 0.05"); got != "p GREATER SMALLPOS" {
		t.Fatalf("Substitute(p > 0.05) = %q", got)
	}
}

func TestSubstituteUnits(t *testing.T) {
	cases := map[string]string{
		"5 mg":     "MG",
		"5mg":      "MG",
		"10 ml":    "ML",
		"70 kg":    "KG",
		"24 hours": "TIME",
		"30 min":   "TIME",
		"7 days":   "TIME",
		"2 weeks":  "TIME",
	}
	for in, want := range cases {
		if got := Substitute(in); got != want {
			t.Errorf("Substitute(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSubstituteMixedSentence(t *testing.T) {
	in := "Patients received 5-10 mg twice, fever in 12.5% of cases after 7 days, onset 5 January 2021, n=42"
	got := Substitute(in)
	for _, want := range []string{"RANGE", "FLOAT PERCENT", "TIME", "DATE", "INT"} {
		if !strings.Contains(got, want) {
			t.Errorf("Substitute(%q) = %q missing %q", in, got, want)
		}
	}
	// no raw digits should survive
	for _, r := range got {
		if r >= '0' && r <= '9' {
			t.Fatalf("raw digit survived: %q", got)
		}
	}
}

func TestSubstitutePlainTextUntouched(t *testing.T) {
	for _, in := range []string{"Vaccine", "side effects", "Pfizer/BioNTech"} {
		if got := Substitute(in); got != in {
			t.Errorf("Substitute(%q) = %q, want unchanged", in, got)
		}
	}
}

func TestSubstituteIdempotentProperty(t *testing.T) {
	inputs := []string{
		"5-10 mg", "0.5%", "<5", "42", "-7", "5 January 2021",
		"fever 38.5", "dose 2", "0.0", "p > 0.05", "7 days",
	}
	for _, in := range inputs {
		once := Substitute(in)
		twice := Substitute(once)
		if once != twice {
			t.Errorf("not idempotent on %q: %q -> %q", in, once, twice)
		}
	}
}

func TestSubstituteNoDigitsQuick(t *testing.T) {
	// Property: after substitution, any remaining digit must be part of a
	// hyphenated identifier (letter-adjacent), never a standalone number.
	f := func(a, b uint16) bool {
		in := "count " + itoa(int(a)) + " and " + itoa(int(b))
		out := Substitute(in)
		for _, r := range out {
			if r >= '0' && r <= '9' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestSubstituteCells(t *testing.T) {
	row := []string{"Pfizer", "2 doses", "85%", "5-10 mg"}
	got := SubstituteCells(row)
	want := []string{"Pfizer", "INT doses", "INT PERCENT", "RANGE mg"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestKeywordsListComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Keywords {
		seen[k] = true
	}
	for _, k := range []string{"ZERO", "RANGE", "NEG", "SMALLPOS", "FLOAT", "INT", "PERCENT", "DATE", "LESS", "GREATER", "TIME", "ML", "MG", "KG"} {
		if !seen[k] {
			t.Errorf("keyword %s missing from Keywords", k)
		}
	}
}

// cascade is the reference oracle: the §3.4 cascade with every regex
// pass run unconditionally, as Substitute's prefilters must agree with.
func cascade(s string) string {
	s = reDateDayFirst.ReplaceAllString(s, KwDate)
	s = reDateMonthFirst.ReplaceAllString(s, KwDate)
	s = reDateMonthYear.ReplaceAllString(s, KwDate)
	s = reRange.ReplaceAllString(s, KwRange)
	s = reUnitML.ReplaceAllString(s, KwML)
	s = reUnitMG.ReplaceAllString(s, KwMG)
	s = reUnitKG.ReplaceAllString(s, KwKG)
	s = reUnitTime.ReplaceAllString(s, KwTime)
	s = rePercent.ReplaceAllStringFunc(s, func(m string) string {
		sub := rePercent.FindStringSubmatch(m)
		return classifyNumber(sub[1]) + " " + KwPercent
	})
	s = strings.ReplaceAll(s, "<", " "+KwLess+" ")
	s = strings.ReplaceAll(s, ">", " "+KwGreater+" ")
	s = replaceStandaloneNumbers(s)
	return strings.Join(strings.Fields(s), " ")
}

// cascadeSeeds are inputs on which a prefilter could plausibly go wrong:
// case folds past ASCII, non-ASCII dashes, worded ranges and months,
// units and percents in every case.
var cascadeSeeds = []string{
	"", "vaccine side effects by manufacturer", "  Pfizer/BioNTech \t mRNA\n", "January", "May to June",
	"dose – interval — mg", "p % of n", "-", "- mg", ".", "٣ days", "５ ml", "x²", "a\u00a0b", "\xff\xfe %",
	"5-10 mg < 0.5%", "COVID-19", "to", "hours",
	"\u017fep 5, 2020", "5 \u212ag", "5 \u212aG", "5–10", "5—10", "Jan 2021", "10 to 20", "10 TO 20",
	"5 JANUARY 2021", "3rd dec 2020", "Sept. 4, 2021", "12 MG", "5 Ml", "70 KGS", "24 HRS", "2 Wks",
	"12.7 %", "-5%", "<5", "p > 0.05", "pp. 10-12", "x-3", "0.5 µg", "5 µl", "n=42 (12.5%)",
}

// FuzzSubstituteMatchesCascade holds Substitute and its prefiltered
// cascade to the unfiltered reference on every input.
func FuzzSubstituteMatchesCascade(f *testing.F) {
	for _, seed := range cascadeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := cascade(s)
		if got := substitute(s); got != want {
			t.Fatalf("substitute(%q) = %q, the unfiltered cascade says %q", s, got, want)
		}
		if got := Substitute(s); got != want {
			t.Fatalf("Substitute(%q) = %q, the unfiltered cascade says %q", s, got, want)
		}
	})
}

// FuzzSubstituteNoDigit holds the early return of Substitute to the
// unfiltered cascade: on text without an ASCII digit, '<' or '>' (those
// are dropped from the input, so every input counts) the two agree.
func FuzzSubstituteNoDigit(f *testing.F) {
	for _, seed := range cascadeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		s = strings.Map(func(r rune) rune {
			if ('0' <= r && r <= '9') || r == '<' || r == '>' {
				return -1
			}
			return r
		}, s)
		if got, want := Substitute(s), cascade(s); got != want {
			t.Fatalf("Substitute(%q) = %q, the unfiltered cascade says %q", s, got, want)
		}
	})
}
