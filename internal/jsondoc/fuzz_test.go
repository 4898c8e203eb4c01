package jsondoc

import (
	"bytes"
	"reflect"
	"testing"
)

// jsonSeeds are FuzzFromJSON's corpus; FuzzBinaryRoundTrip encodes the
// documents they parse to.
var jsonSeeds = []string{
	`{"title":"Masks and transmission","year":2021,"authors":[{"name":"A"},{"name":"B"}],"open":true}`,
	`{}`, `null`, `[]`, `"x"`, `1`, `{"a":`, `{"a":1e400}`, `{"a":-0}`, `{"a":1.0000000000000002}`,
	`{"a":" \ud800"}`, "{\"a\":\"\xff\"}", `{"a":1,"a":2}`, `{"":{"":[null,true,false]}}`,
	`{"tables":[{"html":"<table><tr><td>5-10 mg</td></tr></table>"}]}`,
}

// FuzzFromJSON holds the document decoder every ingest request goes
// through to its contract on arbitrary bytes: it never panics, and
// whatever it accepts survives FromJSON(d.JSON()) unchanged, as a value
// and as bytes.
func FuzzFromJSON(f *testing.F) {
	for _, seed := range jsonSeeds {
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

// FuzzBinaryRoundTrip holds the binary encoding to its contract. Every
// document a FuzzFromJSON seed parses to decodes back from its encoding
// deeply equal, copied or aliased. On arbitrary input the decoder never
// panics and allocates nothing it cannot justify; whatever it
// accepts re-encodes no longer than it came, and that canonical
// encoding decodes and re-encodes to itself byte for byte.
func FuzzBinaryRoundTrip(f *testing.F) {
	for _, seed := range jsonSeeds {
		d, err := FromJSON([]byte(seed))
		if err != nil {
			continue
		}
		enc, err := Encode(d)
		if err != nil {
			f.Fatalf("Encode(%s): %v", seed, err)
		}
		if d == nil {
			d = Doc{} // `null` parses to a nil Doc, which encodes as {}
		}
		for _, decode := range []func([]byte) (Doc, error){FromBinary, FromBinaryAliased} {
			back, err := decode(enc)
			if err != nil || !reflect.DeepEqual(back, d) {
				f.Fatalf("%s encodes to %x, which decodes to %#v (%v)", seed, enc, back, err)
			}
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{bvObject, 1, 1, 'a', bvF64, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // {"a": NaN}
	f.Add([]byte{bvObject, 2, 1, 'b', bvNull, 1, 'a', bvTrue})              // keys out of order
	f.Add([]byte{bvObject, 2, 1, 'a', bvNull, 1, 'a', bvTrue})              // a repeated key
	f.Add([]byte{bvArray, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Doc
		var err error
		allocs := testing.AllocsPerRun(1, func() { d, err = FromBinary(data) })
		// A rejection costs its error and nothing sized by the input; an
		// acceptance costs two slabs and a map or slice per container,
		// each at least two bytes of input.
		if limit := 4 + len(data)/2; err != nil && allocs > 8 || allocs > float64(limit) {
			t.Fatalf("decoding %d bytes allocated %v times (err %v)", len(data), allocs, err)
		}
		if err != nil {
			return
		}
		enc, err := AppendBinary(nil, d)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if len(enc) > len(data) {
			t.Fatalf("re-encoding is %d bytes, input was %d", len(enc), len(data))
		}
		back, err := FromBinaryAliased(enc)
		if err != nil {
			t.Fatalf("canonical encoding %x does not decode: %v", enc, err)
		}
		again, err := AppendBinary(nil, back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("canonical encoding %x re-encodes as %x (%v)", enc, again, err)
		}
	})
}
