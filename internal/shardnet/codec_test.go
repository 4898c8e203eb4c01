package shardnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"covidkg/internal/jsondoc"
)

// maxValueDepth and appendObject name the document encoding's nesting
// limit and encoder for the tests below.
const maxValueDepth = jsondoc.MaxBinaryDepth

func appendObject(b []byte, m map[string]any) ([]byte, error) { return jsondoc.AppendBinary(b, m) }

// bvObject is the type tag an encoded document starts with, read off
// the one encoder so the hostile frames below stay in step with it.
var bvObject = func() byte {
	b, err := jsondoc.AppendBinary(nil, jsondoc.Doc{})
	if err != nil {
		panic(err)
	}
	return b[0]
}()

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
			DeadlineUnixMicro: rng.Int63n(1 << 40),
			ID:                fmt.Sprintf("id-%d", i),
			IDs:               randIDs(rng, rng.Intn(4)),
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
// side: documents sent as stored encodings (EncDoc, EncDocs) or as a
// tree (Doc) decode to the trees they were encoded from.
func TestBinaryResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		resp := &response{
			ID:       fmt.Sprintf("id-%d", i),
			IDs:      randIDs(rng, rng.Intn(5)),
			Docs:     randDocs(rng, rng.Intn(3)),
			N:        rng.Intn(1000),
			WALBytes: rng.Int63n(1 << 30),
		}
		for _, d := range resp.Docs {
			resp.EncDocs = append(resp.EncDocs, mustEncode(d))
		}
		switch rng.Intn(4) {
		case 0:
			resp.ErrCode, resp.ErrMsg = codeNotFound, "no such doc"
		case 1:
			resp.Doc = randDoc(rng, 2)
		case 2:
			resp.Doc = randDoc(rng, 2)
			resp.EncDoc = mustEncode(resp.Doc)
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
		resp.EncDoc, resp.EncDocs = nil, nil // sent, never decoded
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("envelope %d diverged:\ndecoded: %#v\nencoded: %#v", i, got, resp)
		}
	}
}

// retiredRequestFields and retiredResponseFields are the field numbers
// that older peers sent and that are never reused (codec.go lists what
// each carried).
var (
	retiredRequestFields  = []int{3, 9, 10, 11}
	retiredResponseFields = []int{8, 9, 10, 11, 12, 14, 15}
)

// appendRetiredFields appends each retired number twice, once per
// wiretype, so the decoder must skip both shapes.
func appendRetiredFields(b []byte, nums []int) []byte {
	for _, num := range nums {
		b = appendVarintField(b, num, 7)
		b = appendStringField(b, num, "retired")
	}
	return b
}

// tagsIn lists the field numbers of every field in an encoded envelope,
// in order.
func tagsIn(t *testing.T, p []byte) []int {
	t.Helper()
	_, pos, err := readUvarint(p, 2) // the corr, after version and kind
	if err != nil {
		t.Fatal(err)
	}
	var nums []int
	for pos < len(p) {
		num, _, _, _, npos, err := readField(p, pos)
		if err != nil {
			t.Fatal(err)
		}
		nums = append(nums, num)
		pos = npos
	}
	return nums
}

// TestRetiredFieldNumbersIgnored pins the retired b1 field numbers: a
// frame carrying them decodes to the same envelope as one without them,
// and the encoder never emits them.
func TestRetiredFieldNumbersIgnored(t *testing.T) {
	req := &request{
		Op: opInsert, Shard: 3, DeadlineUnixMicro: 1234567, IdemKey: "k",
		ID: "doc-1", IDs: []string{"a", "b"}, Doc: jsondoc.Doc{"_id": "doc-1", "n": 2.0},
	}
	plainReq, err := appendBinaryRequest(nil, 5, req)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := decodeBinaryRequest(plainReq)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := decodeBinaryRequest(appendRetiredFields(append([]byte(nil), plainReq...), retiredRequestFields))
	if err != nil {
		t.Fatalf("request with retired fields: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retired request fields changed the envelope:\ngot:  %#v\nwant: %#v", got, want)
	}

	resp := &response{
		ErrCode: codeNotFound, ErrMsg: "m", ID: "doc-1", IDs: []string{"a"},
		Doc: jsondoc.Doc{"_id": "doc-1"}, Docs: []jsondoc.Doc{{"_id": "a"}}, N: 9, WALBytes: 1 << 20,
	}
	plainResp, err := appendBinaryResponse(nil, 6, resp)
	if err != nil {
		t.Fatal(err)
	}
	_, wantResp, err := decodeBinaryResponse(plainResp)
	if err != nil {
		t.Fatal(err)
	}
	_, gotResp, err := decodeBinaryResponse(appendRetiredFields(append([]byte(nil), plainResp...), retiredResponseFields))
	if err != nil {
		t.Fatalf("response with retired fields: %v", err)
	}
	if !reflect.DeepEqual(gotResp, wantResp) {
		t.Fatalf("retired response fields changed the envelope:\ngot:  %#v\nwant: %#v", gotResp, wantResp)
	}

	// Every field of both envelopes is populated above, so the encoder
	// had every chance to emit a retired number.
	for _, c := range []struct {
		name    string
		p       []byte
		retired []int
	}{{"request", plainReq, retiredRequestFields}, {"response", plainResp, retiredResponseFields}} {
		for _, num := range tagsIn(t, c.p) {
			if slices.Contains(c.retired, num) {
				t.Errorf("%s encoder emitted retired field %d", c.name, num)
			}
		}
	}

	// codec.go's field-number comments list every retired number.
	src, err := os.ReadFile("codec.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		anchor  string
		retired []int
	}{{"request envelope. Numbers", retiredRequestFields}, {"response envelope, under", retiredResponseFields}} {
		i := bytes.Index(src, []byte(c.anchor))
		if i < 0 {
			t.Fatalf("codec.go has no comment containing %q", c.anchor)
		}
		comment := string(src[i:])
		comment = comment[:strings.Index(comment, "const (")]
		for _, num := range c.retired {
			if !regexp.MustCompile(fmt.Sprintf(`\b%d\b`, num)).MatchString(comment) {
				t.Errorf("codec.go's %q comment does not list retired field %d", c.anchor, num)
			}
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

func mustEncode(d jsondoc.Doc) []byte {
	enc, err := jsondoc.Encode(d)
	if err != nil {
		panic(err)
	}
	return enc
}

// encodeAll returns each document's stored encoding, as a shard's
// store holds it.
func encodeAll(docs []jsondoc.Doc) [][]byte {
	out := make([][]byte, len(docs))
	for i, d := range docs {
		out[i] = mustEncode(d)
	}
	return out
}

// BenchmarkEncodeGetManyBinary proves the pooled encode path is
// zero-allocation at steady state: run with -benchmem and allocs/op
// reads 0. The documents are stored encodings, which is what a shard
// server's get_many reply is built from.
func BenchmarkEncodeGetManyBinary(b *testing.B) {
	resp := &response{EncDocs: encodeAll(benchDocs(64))}
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
	resp := &response{EncDoc: mustEncode(benchDoc())}
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
