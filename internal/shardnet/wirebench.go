package shardnet

// Codec micro-benchmark for the repo benchmark's per-layer probes. It
// lives in this package because the codec entry points are deliberately
// unexported: the benchmark times exactly the functions the client and
// server call, not a re-implementation that could drift.

import (
	"runtime"
	"sort"
	"time"

	"covidkg/internal/jsondoc"
)

// CodecOpStats is one operation's row of the wire-codec benchmark: the
// p50 cost of encoding and of decoding the request and response
// envelopes that operation puts on the wire, plus the encoded response
// size.
type CodecOpStats struct {
	Op          string
	Codec       string // always "b1"; the benchmark's probes select on it
	P50EncodeUs float64
	P50DecodeUs float64
	RespBytes   int
}

// p50Micros is the median wall time of reps calls of fn, in µs. It
// collects first, so a GC cycle owed to whatever ran before does not
// land in so few samples.
func p50Micros(reps int, fn func()) float64 {
	runtime.GC()
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		out = append(out, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	sort.Float64s(out)
	return out[(len(out)-1)/2]
}

// benchEnvelopePair measures one (request, response) envelope pair,
// reusing pooled buffers across iterations exactly as the mux write
// path does.
func benchEnvelopePair(op string, req *request, resp *response, reps int) CodecOpStats {
	reqBuf, respBuf := getBuf(), getBuf()
	defer putBuf(reqBuf)
	defer putBuf(respBuf)
	encodeBoth := func() {
		b, err := appendBinaryRequest((*reqBuf)[:0], 7, req)
		if err != nil {
			panic(err)
		}
		*reqBuf = b
		b, err = appendBinaryResponse((*respBuf)[:0], 7, resp)
		if err != nil {
			panic(err)
		}
		*respBuf = b
	}
	encodeBoth()
	return CodecOpStats{
		Op: op, Codec: "b1",
		RespBytes:   len(*respBuf),
		P50EncodeUs: p50Micros(reps, encodeBoth),
		P50DecodeUs: p50Micros(reps, func() {
			if _, _, err := decodeBinaryRequest(*reqBuf); err != nil {
				panic(err)
			}
			if _, _, err := decodeBinaryResponse(*respBuf); err != nil {
				panic(err)
			}
		}),
	}
}

// BenchWireCodecs times the wire codec over the two envelope shapes the
// read fast path lives on: a single get (request with an id, response
// with one document) and a batched get_many (request with len(ids) ids,
// response with the matching documents). Each measurement covers
// request+response together — one logical round trip's codec work. The
// documents are encoded up front, as a shard's store holds them, so the
// response encode times a shard server's: copying stored encodings.
func BenchWireCodecs(doc jsondoc.Doc, docs []jsondoc.Doc, ids []string, reps int) []CodecOpStats {
	deadline := time.Now().Add(5 * time.Second).UnixMicro()
	getReq := &request{Op: opGet, Shard: 2, DeadlineUnixMicro: deadline, ID: ids[0]}
	encs := make([][]byte, 1+len(docs))
	for i, d := range append([]jsondoc.Doc{doc}, docs...) {
		var err error
		if encs[i], err = jsondoc.Encode(d); err != nil {
			panic(err)
		}
	}
	getResp := &response{EncDoc: encs[0]}
	manyReq := &request{Op: opGetMany, Shard: 2, DeadlineUnixMicro: deadline, IDs: ids}
	manyResp := &response{EncDocs: encs[1:]}

	manyReps := reps / 10
	if manyReps < 20 {
		manyReps = 20
	}
	return []CodecOpStats{
		benchEnvelopePair(opGet, getReq, getResp, reps),
		benchEnvelopePair(opGetMany, manyReq, manyResp, manyReps),
	}
}
