package jsondoc

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzFromJSON holds the document decoder every ingest request goes
// through to its contract on arbitrary bytes: it never panics, and
// whatever it accepts survives FromJSON(d.JSON()) unchanged, as a value
// and as bytes.
func FuzzFromJSON(f *testing.F) {
	for _, seed := range []string{
		`{"title":"Masks and transmission","year":2021,"authors":[{"name":"A"},{"name":"B"}],"open":true}`,
		`{}`, `null`, `[]`, `"x"`, `1`, `{"a":`, `{"a":1e400}`, `{"a":-0}`, `{"a":1.0000000000000002}`,
		`{"a":" \ud800"}`, "{\"a\":\"\xff\"}", `{"a":1,"a":2}`, `{"":{"":[null,true,false]}}`,
		`{"tables":[{"html":"<table><tr><td>5-10 mg</td></tr></table>"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := FromJSON(data)
		if err != nil {
			return
		}
		blob := d.JSON()
		back, err := FromJSON(blob)
		if err != nil {
			t.Fatalf("FromJSON(%q) rejects its own JSON %q: %v", data, blob, err)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("FromJSON(%q) round-trips %#v to %#v", data, d, back)
		}
		if again := back.JSON(); !bytes.Equal(again, blob) {
			t.Fatalf("FromJSON(%q) re-encodes as %q, first as %q", data, again, blob)
		}
	})
}
