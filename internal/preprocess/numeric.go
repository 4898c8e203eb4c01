// Package preprocess implements the numeric substitution grammar of §3.4
// of the COVIDKG paper. Table cells are rewritten so that all numeric
// content collapses onto a small set of category keywords before being
// fed to the classifiers; this keeps the vocabulary finite and lets the
// models generalize over magnitudes instead of memorizing literals.
//
// The substitution categories, in application order (order is load-bearing
// — the paper notes "0 in 50 is not the same as 0.0"):
//
//	DATE      dates whose month is written in words ("5 January 2021");
//	          numeric forms like mm/dd/yy are deliberately not handled
//	RANGE     arithmetic ranges ("5-10"); units after the range survive
//	TIME/ML/MG/KG  numbers followed by the four most frequent units
//	PERCENT   the % sign; the preceding number keeps its own class, so
//	          "5%" becomes "INT PERCENT" and "0.5%" "SMALLPOS PERCENT"
//	LESS/GREATER   the < and > comparison symbols
//	ZERO      all zeros, in both integer and decimal form (0, 0.0, .0)
//	NEG       negative integers (only true numbers, not hyphenated words)
//	SMALLPOS  positive numbers strictly between 0 and 1
//	FLOAT     non-integer numbers >= 1
//	INT       integer numbers >= 1 (no upper binning; the paper observed
//	          no pattern in upper limits)
package preprocess

import (
	"regexp"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Category keywords emitted by Substitute.
const (
	KwZero     = "ZERO"
	KwRange    = "RANGE"
	KwNeg      = "NEG"
	KwSmallPos = "SMALLPOS"
	KwFloat    = "FLOAT"
	KwInt      = "INT"
	KwPercent  = "PERCENT"
	KwDate     = "DATE"
	KwLess     = "LESS"
	KwGreater  = "GREATER"
	KwTime     = "TIME"
	KwML       = "ML"
	KwMG       = "MG"
	KwKG       = "KG"
)

// Keywords lists every keyword Substitute can emit; the vocabulary
// builder seeds itself with these so they are never cut off.
var Keywords = []string{
	KwZero, KwRange, KwNeg, KwSmallPos, KwFloat, KwInt,
	KwPercent, KwDate, KwLess, KwGreater, KwTime, KwML, KwMG, KwKG,
}

const monthAlt = `(?:jan(?:uary)?|feb(?:ruary)?|mar(?:ch)?|apr(?:il)?|may|jun(?:e)?|jul(?:y)?|aug(?:ust)?|sep(?:t(?:ember)?)?|oct(?:ober)?|nov(?:ember)?|dec(?:ember)?)`

var (
	// "5 January 2021", "January 5, 2021", "Jan 2021"
	reDateDayFirst   = regexp.MustCompile(`(?i)\b\d{1,2}(?:st|nd|rd|th)?\s+` + monthAlt + `\.?,?(?:\s+\d{2,4})?\b`)
	reDateMonthFirst = regexp.MustCompile(`(?i)\b` + monthAlt + `\.?\s+\d{1,2}(?:st|nd|rd|th)?(?:\s*,?\s*\d{2,4})?\b`)
	reDateMonthYear  = regexp.MustCompile(`(?i)\b` + monthAlt + `\.?\s+\d{4}\b`)

	// "5-10", "5 - 10", "0.5–2.5" (hyphen, en dash, or the word "to"
	// between two numbers)
	reRange = regexp.MustCompile(`\b\d+(?:\.\d+)?\s*(?:[-–—]|to)\s*\d+(?:\.\d+)?\b`)

	// number + frequent unit
	reUnitTime = regexp.MustCompile(`(?i)\b\d+(?:\.\d+)?\s*(?:h|hr|hrs|hours?|min|mins|minutes?|s|sec|secs|seconds?|d|days?|wk|wks|weeks?|mo|months?|yr|yrs|years?)\b`)
	reUnitML   = regexp.MustCompile(`(?i)\b\d+(?:\.\d+)?\s*(?:ml|mls|milliliters?|millilitres?|µl|ul)\b`)
	reUnitMG   = regexp.MustCompile(`(?i)\b\d+(?:\.\d+)?\s*(?:mg|mgs|milligrams?|µg|ug|mcg)\b`)
	reUnitKG   = regexp.MustCompile(`(?i)\b\d+(?:\.\d+)?\s*(?:kg|kgs|kilograms?)\b`)

	// a number followed by the percent sign
	rePercent = regexp.MustCompile(`(-?\d+(?:\.\d+)?)\s*%`)

	// a standalone number (optionally signed); word boundaries guarded
	// manually so hyphenated words ("COVID-19") are not split
	reNumber = regexp.MustCompile(`-?\d+(?:\.\d+)?`)
)

// classifyNumber maps a numeric literal to its §3.4 keyword.
func classifyNumber(lit string) string {
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return KwInt
	}
	isInt := !strings.Contains(lit, ".")
	switch {
	case f == 0:
		return KwZero
	case f < 0:
		// The paper replaces negative integers with NEG; negative
		// decimals fall in the same bucket for lack of a finer rule.
		return KwNeg
	case f < 1:
		return KwSmallPos
	case isInt:
		return KwInt
	default:
		return KwFloat
	}
}

// isStandalone reports whether the match at [start,end) is a true
// standalone number: it must not be embedded in a word, so neither
// neighbour may be a letter, digit, '-' or '.' ("COVID-19" keeps its 19
// attached).
func isStandalone(s string, start, end int) bool {
	if start > 0 && isWordByte(s[start-1]) {
		return false
	}
	return end >= len(s) || !isWordByte(s[end])
}

func isWordByte(b byte) bool {
	return b == '-' || b == '.' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

// Substitute rewrites one cell or phrase of table text per §3.4 and
// returns the normalized form. Non-numeric text passes through
// unchanged (aside from whitespace normalization around replacements):
// every substitution needs an ASCII digit, '<' or '>', so text with none
// — most header and label cells — skips the eight regex passes. Of the
// rest, each regex pass runs only when its input holds a literal that
// every match of the pass contains: a month trigram for the three date
// passes, '-' or "to" for RANGE, l, g and k for ML, MG and KG, one of
// hmsdwy for TIME and '%' for PERCENT, letters in either case. The case
// folds of (?i) reach past ASCII (ſ matches s, the Kelvin sign k), and
// RANGE also accepts the – and — dashes, so text holding any non-ASCII
// byte runs every pass.
func Substitute(s string) string {
	if !strings.ContainsAny(s, "0123456789<>") {
		return strings.Join(strings.Fields(s), " ")
	}
	return substitute(s)
}

// substitute is the cascade, each pass behind its prefilter; has reads s
// as the pass about to run receives it.
func substitute(s string) string {
	all := strings.ContainsFunc(s, func(r rune) bool { return r >= utf8.RuneSelf })
	has := func(chars string) bool { return all || strings.ContainsAny(s, chars) }

	// 1. dates with worded months
	if all || hasMonth(s) {
		s = reDateDayFirst.ReplaceAllString(s, KwDate)
		s = reDateMonthFirst.ReplaceAllString(s, KwDate)
		s = reDateMonthYear.ReplaceAllString(s, KwDate)
	}

	// 2. ranges, before single numbers so "5-10" never reads as 5 then -10
	if has("-") || strings.Contains(s, "to") {
		s = reRange.ReplaceAllString(s, KwRange)
	}

	// 3. numbers followed by the dominant units collapse to unit keywords
	if has("lL") {
		s = reUnitML.ReplaceAllString(s, KwML)
	}
	if has("gG") {
		s = reUnitMG.ReplaceAllString(s, KwMG)
	}
	if has("kK") {
		s = reUnitKG.ReplaceAllString(s, KwKG)
	}
	if has("hmsdwyHMSDWY") {
		s = reUnitTime.ReplaceAllString(s, KwTime)
	}

	// 4. percentages keep the magnitude class of their number
	if has("%") {
		s = rePercent.ReplaceAllStringFunc(s, func(m string) string {
			sub := rePercent.FindStringSubmatch(m)
			return classifyNumber(sub[1]) + " " + KwPercent
		})
	}

	// 5. comparison symbols
	s = strings.ReplaceAll(s, "<", " "+KwLess+" ")
	s = strings.ReplaceAll(s, ">", " "+KwGreater+" ")

	// 6. remaining standalone numbers, classified by magnitude
	s = replaceStandaloneNumbers(s)

	return strings.Join(strings.Fields(s), " ")
}

var monthTrigrams = []string{"jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec"}

// hasMonth reports whether ASCII text contains a month trigram in any case.
func hasMonth(s string) bool {
	s = strings.ToLower(s)
	for _, m := range monthTrigrams {
		if strings.Contains(s, m) {
			return true
		}
	}
	return false
}

func replaceStandaloneNumbers(s string) string {
	locs := reNumber.FindAllStringIndex(s, -1)
	if locs == nil {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	prev := 0
	for _, loc := range locs {
		start, end := loc[0], loc[1]
		if !isStandalone(s, start, end) {
			continue
		}
		lit := s[start:end]
		// A '-' preceded by a non-space, non-start byte is a connector
		// ("pp. 10-12" was already collapsed by RANGE; "x-3" keeps the 3).
		if lit[0] == '-' && start > 0 && s[start-1] != ' ' && s[start-1] != '(' && s[start-1] != '\t' {
			start++
			lit = lit[1:]
		}
		b.WriteString(s[prev:start])
		b.WriteString(classifyNumber(lit))
		prev = end
	}
	b.WriteString(s[prev:])
	return b.String()
}

// SubstituteCells applies Substitute to every cell of a table row.
func SubstituteCells(row []string) []string {
	out := make([]string, len(row))
	for i, c := range row {
		out[i] = Substitute(c)
	}
	return out
}
