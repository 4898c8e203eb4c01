package shardnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"covidkg/internal/jsondoc"
)

// randValue builds a random JSON-domain value (the domain jsondoc
// normalizes to: nil, bool, float64, string, []any, map[string]any).
func randValue(rng *rand.Rand, depth int) any {
	max := 7
	if depth <= 0 {
		max = 5 // leaves only
	}
	switch rng.Intn(max) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return rng.NormFloat64() * 1000
	case 3:
		return float64(rng.Intn(1 << 30))
	case 4:
		return fmt.Sprintf("s%d-%x", rng.Intn(1000), rng.Int63())
	case 5:
		n := rng.Intn(4)
		arr := make([]any, n)
		for i := range arr {
			arr[i] = randValue(rng, depth-1)
		}
		return arr
	default:
		return map[string]any(randDoc(rng, depth-1))
	}
}

func randDoc(rng *rand.Rand, depth int) jsondoc.Doc {
	d := jsondoc.Doc{}
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		d[fmt.Sprintf("f%d", i)] = randValue(rng, depth)
	}
	return d
}

func randIDs(rng *rand.Rand, n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("id-%x", rng.Int63())
	}
	return out
}

func randDocs(rng *rand.Rand, n int) []jsondoc.Doc {
	if n == 0 {
		return nil
	}
	out := make([]jsondoc.Doc, n)
	for i := range out {
		out[i] = randDoc(rng, 2)
	}
	return out
}

// TestBinaryRequestRoundTrip is the codec property test on the request
// side: for a large set of randomized envelopes, decoding the encoding
// yields exactly the envelope that was encoded.
func TestBinaryRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		req := &request{
			Op:                opGetMany,
			Shard:             rng.Intn(16),
			MapVersion:        uint64(rng.Intn(5)),
			DeadlineUnixMicro: rng.Int63n(1 << 40),
			ID:                fmt.Sprintf("id-%d", i),
			IDs:               randIDs(rng, rng.Intn(4)),
			Docs:              randDocs(rng, rng.Intn(3)),
			Version:           uint64(rng.Intn(3)),
		}
		if rng.Intn(2) == 0 {
			req.IdemKey = fmt.Sprintf("idem-%d", i)
			req.Doc = randDoc(rng, 2)
		}

		wantCorr := uint64(rng.Int63())
		bin, err := appendBinaryRequest(nil, wantCorr, req)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		corr, got, err := decodeBinaryRequest(bin)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if corr != wantCorr {
			t.Fatalf("corr = %d, want %d", corr, wantCorr)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("envelope %d diverged:\ndecoded: %#v\nencoded: %#v", i, got, req)
		}
	}
}

// TestBinaryResponseRoundTrip is the same property on the response
// side.
func TestBinaryResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		resp := &response{
			ID:       fmt.Sprintf("id-%d", i),
			IDs:      randIDs(rng, rng.Intn(5)),
			Docs:     randDocs(rng, rng.Intn(3)),
			N:        rng.Intn(1000),
			CRC:      uint32(rng.Int63()),
			WALBytes: rng.Int63n(1 << 30),
		}
		switch rng.Intn(3) {
		case 0:
			resp.ErrCode, resp.ErrMsg = codeNotFound, "no such doc"
		case 1:
			resp.Doc = randDoc(rng, 2)
			resp.Manifest = map[string]uint32{"a": 1, "b": uint32(rng.Intn(100))}
		}

		bin, err := appendBinaryResponse(nil, 42, resp)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		corr, got, err := decodeBinaryResponse(bin)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if corr != 42 {
			t.Fatalf("corr = %d, want 42", corr)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("envelope %d diverged:\ndecoded: %#v\nencoded: %#v", i, got, resp)
		}
	}
}

// TestBinaryDecodeRejectsWithoutAllocating pins the reject-don't-
// allocate property: a frame whose length prefixes promise far more
// data than the payload carries must be rejected by bounds checks
// before any allocation sized from the attacker-controlled number.
func TestBinaryDecodeRejectsWithoutAllocating(t *testing.T) {
	// A request claiming a 1 TiB id string in a 32-byte payload.
	evil := []byte{binVersion, binKindRequest, 1}
	evil = appendTag(evil, rfID, wtBytes)
	evil = appendUvarint(evil, 1<<40)
	evil = append(evil, "tiny"...)

	// An ids list claiming 2^30 entries.
	evilIDs := []byte{binVersion, binKindRequest, 1}
	evilIDs = appendTag(evilIDs, rfIDs, wtBytes)
	evilIDs = appendUvarint(evilIDs, 12)
	evilIDs = appendUvarint(evilIDs, 1<<30)
	evilIDs = append(evilIDs, "abcdefghij"...)

	for name, p := range map[string][]byte{"huge_string": evil, "huge_list": evilIDs} {
		p := p
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := decodeBinaryRequest(p); err == nil {
				t.Errorf("%s: decode accepted a hostile frame", name)
			}
		})
		// The error value itself allocates; what must NOT happen is an
		// allocation sized by the hostile length (which would also be
		// orders of magnitude more than this budget).
		if allocs > 10 {
			t.Errorf("%s: %v allocs rejecting hostile frame, want ≤10", name, allocs)
		}
	}
}

// TestBinaryDecodeDepthLimit pins the recursion guard: nesting beyond
// maxValueDepth is rejected, not stack-overflowed.
func TestBinaryDecodeDepthLimit(t *testing.T) {
	v := any("leaf")
	for i := 0; i < maxValueDepth+5; i++ {
		v = []any{v}
	}
	d := jsondoc.Doc{"deep": v}
	if _, err := appendObject(nil, d); err == nil {
		t.Fatal("encode accepted nesting beyond maxValueDepth")
	}
}

// FuzzDecodeBinaryRequest asserts the request decoder never panics on
// arbitrary input. Valid encodings seed the corpus so mutation starts
// from structurally interesting frames.
func FuzzDecodeBinaryRequest(f *testing.F) {
	seed, err := appendBinaryRequest(nil, 9, &request{
		Op: opGet, Shard: 3, DeadlineUnixMicro: 1234567, ID: "doc-1",
		IDs: []string{"a", "b"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	withDoc, err := appendBinaryRequest(nil, 10, &request{
		Op: opInsert, Doc: jsondoc.Doc{"_id": "x", "n": 1.5, "tags": []any{"a", true, nil}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withDoc)
	f.Add([]byte{})
	f.Add([]byte{binVersion})
	f.Add([]byte{binVersion, binKindRequest})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		corr, req, err := decodeBinaryRequest(data)
		if err == nil && req == nil {
			t.Fatalf("nil request with nil error (corr %d)", corr)
		}
	})
}

// FuzzDecodeBinaryResponse is the same guarantee for the response
// decoder (the frames a hostile or corrupt server could send us).
func FuzzDecodeBinaryResponse(f *testing.F) {
	seed, err := appendBinaryResponse(nil, 9, &response{
		Doc: jsondoc.Doc{"_id": "x", "title": "t"},
		IDs: []string{"a"}, N: 7,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	errResp, err := appendBinaryResponse(nil, 1, &response{ErrCode: codeNotFound, ErrMsg: "gone"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(errResp)
	f.Add([]byte{binVersion, binKindResponse})
	f.Fuzz(func(t *testing.T, data []byte) {
		corr, resp, err := decodeBinaryResponse(data)
		if err == nil && resp == nil {
			t.Fatalf("nil response with nil error (corr %d)", corr)
		}
	})
}

// ------------------------------------------------------------ benchmarks

func benchDoc() jsondoc.Doc {
	return jsondoc.Doc{
		"_id":      "doc-bench-1",
		"title":    "Rapid serology benchmarks under surge conditions",
		"abstract": "A moderately sized abstract field providing realistic string content for the codec to move, long enough that per-byte costs show up in the profile rather than fixed overheads alone.",
		"journal":  "J Bench",
		"tags":     []any{"serology", "surge", "benchmark"},
		"year":     2021.0,
		"score":    0.8731,
	}
}

func benchDocs(n int) []jsondoc.Doc {
	out := make([]jsondoc.Doc, n)
	for i := range out {
		d := benchDoc()
		d["_id"] = fmt.Sprintf("doc-bench-%d", i)
		out[i] = d
	}
	return out
}

// BenchmarkEncodeGetManyBinary proves the pooled encode path is
// zero-allocation at steady state: run with -benchmem and allocs/op
// reads 0.
func BenchmarkEncodeGetManyBinary(b *testing.B) {
	resp := &response{Docs: benchDocs(64)}
	buf := getBuf()
	defer putBuf(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := appendBinaryResponse((*buf)[:0], 7, resp)
		if err != nil {
			b.Fatal(err)
		}
		*buf = out
	}
}

func BenchmarkRoundTripGetBinary(b *testing.B) {
	req := &request{Op: opGet, Shard: 1, DeadlineUnixMicro: 123456789, ID: "doc-bench-1"}
	resp := &response{Doc: benchDoc()}
	reqBuf, respBuf := getBuf(), getBuf()
	defer putBuf(reqBuf)
	defer putBuf(respBuf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb, err := appendBinaryRequest((*reqBuf)[:0], uint64(i), req)
		if err != nil {
			b.Fatal(err)
		}
		*reqBuf = rb
		if _, _, err := decodeBinaryRequest(rb); err != nil {
			b.Fatal(err)
		}
		pb, err := appendBinaryResponse((*respBuf)[:0], uint64(i), resp)
		if err != nil {
			b.Fatal(err)
		}
		*respBuf = pb
		if _, _, err := decodeBinaryResponse(pb); err != nil {
			b.Fatal(err)
		}
	}
}
