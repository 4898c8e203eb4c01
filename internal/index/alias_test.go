package index

import (
	"strings"
	"testing"
	"unsafe"
)

// inside reports whether s's bytes lie within src's.
func inside(s, src string) bool {
	if len(s) == 0 {
		return false
	}
	p, base := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= base && p < base+uintptr(len(src))
}

// TestIndexTermsDoNotAliasText holds every term the index keeps — in
// the memtable, in the write generations and, after a seal, in the
// segment — to memory of its own: a term that were a substring of a
// document's text would keep the whole text alive for as long as the
// term is indexed. Short words, digits and hyphenated identifiers are
// the terms stemming leaves unchanged.
func TestIndexTermsDoNotAliasText(t *testing.T) {
	body := strings.Repeat("covid-19 cases in 2021 were modelled with ml and rt estimates; masks reduce transmission. ", 200)
	title := "sars-cov-2 b117 vaccines ml"
	ix := New()
	ix.AddDoc("d1", Analyze([]FieldText{{"title", title}, {"abstract", body}}), 1)

	check := func(where, term string) {
		t.Helper()
		if inside(term, body) || inside(term, title) {
			t.Fatalf("%s term %q aliases the document's text", where, term)
		}
	}
	if len(ix.mem.terms) < 10 {
		t.Fatalf("memtable holds only %d terms", len(ix.mem.terms))
	}
	for term, r := range ix.mem.terms {
		check("memtable key", term)
		check("memtable record", r.term)
	}
	for term := range ix.termGens {
		check("write generation", term)
	}

	ix.Seal()
	if len(ix.segs) != 1 {
		t.Fatalf("seal left %d segments", len(ix.segs))
	}
	s := ix.segs[0]
	for _, term := range s.terms {
		check("segment dictionary", term)
	}
	for term := range s.termN {
		check("segment term map", term)
	}
}
