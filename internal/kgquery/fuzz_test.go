package kgquery

import (
	"errors"
	"testing"
)

// FuzzParse holds the parser behind POST /api/v1/kg/query to its
// contract on arbitrary text: it never panics, it either returns a query
// or a *ParseError, and a ParseError's offset lies within the input (at
// most its length, where end-of-input errors point).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`(norm="vaccines")-{1,3}->(label~"mrna")`,
		`(norm=$from)-->(norm=$to)`,
		`(label="a \"quoted\" \\ label")`,
		`(source=$a)-{1,2}->(source=$b)`,
		`(norm="x")<--(norm="y")`, `()`, `(`, `(norm=`, `(norm="`, `(norm="\`, `(norm="\q")`,
		`(a="b")-{0,1}->(c="d")`, `(a="b")-{3,1}->(c="d")`, `(a="b")-{1,99}->(c="d")`,
		`(a="b")-{1,}->(c="d")`, `(a="b") <`, `$`, `(a=$)`, `(a~$missing)`, "(a=\"b\")\xff", "(é=\"b\")",
		`(a="b")-{18446744073709551616,1}->(c="d")`,
	} {
		f.Add(seed, "vaccines")
	}
	f.Fuzz(func(t *testing.T, text, param string) {
		params := map[string]string{"from": param, "to": param, "a": param, "b": param}
		q, err := Parse(text, params)
		if err == nil {
			if q == nil || len(q.Pattern.Nodes) != len(q.Pattern.Edges)+1 {
				t.Fatalf("Parse(%q) accepted a malformed query: %+v", text, q)
			}
			return
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("Parse(%q) error %v (%T) is not a *ParseError", text, err, err)
		}
		if pe.Pos < 0 || pe.Pos > len(text) {
			t.Fatalf("Parse(%q): error offset %d outside the %d-byte input: %v", text, pe.Pos, len(text), err)
		}
	})
}
