package shardnet

// codec.go is the wire codec ("b1"), the only thing a shardnet
// connection speaks. Each frame is a 4-byte big-endian length prefix
// and a compact tag/value payload:
//
//	payload = version(0x01) kind(0=request 1=response) uvarint(corr) field*
//	field   = uvarint(tag) value        tag = fieldNum<<1 | wiretype
//	wiretype 0 = uvarint value; wiretype 1 = uvarint(len) + len bytes
//
// Unknown field numbers are skippable by wiretype, so either side can
// add fields without breaking the other; a change that is not
// skippable takes a new version byte, and a receiver closes the
// connection on a version it does not know (readRawFrame checks it
// before sizing anything from the frame). The correlation id (corr)
// lets many requests share one connection: responses carry back the
// corr of the request they answer, in whatever order the server
// finishes them.
//
// Document payloads are encoded directly from the jsondoc value domain
// (null, bool, float64, string, []any, map[string]any) with a
// one-byte type tag per value — no reflection, no intermediate JSON.
// Decoding is reject-don't-allocate: every claimed length and element
// count is checked against the bytes actually remaining in the frame
// before any allocation is sized from it, so a corrupt or hostile
// frame costs at most the frame itself (already bounded by maxFrame).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"covidkg/internal/jsondoc"
)

const (
	binVersion      = 0x01
	binKindRequest  = 0x00
	binKindResponse = 0x01

	wtVarint = 0
	wtBytes  = 1

	// maxValueDepth bounds document nesting during decode so a frame of
	// nothing but open-array bytes cannot recurse the stack away.
	maxValueDepth = 64
)

func codecErr(format string, args ...any) error {
	return fmt.Errorf("shardnet: codec: "+format, args...)
}

// ------------------------------------------------------------ buffers

// bufPool recycles encode/decode scratch across calls: the steady-state
// read path encodes every frame into a pooled buffer and returns it
// once written, so sustained QPS allocates no per-frame storage.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if b == nil || cap(*b) > 1<<20 {
		return // let one-off giants (snapshots) go to GC instead of pinning the pool
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// ------------------------------------------------------------ varints

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func readUvarint(p []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(p[pos:])
	if n <= 0 {
		return 0, 0, codecErr("truncated or oversized varint at %d", pos)
	}
	return v, pos + n, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ------------------------------------------------------- field append

func appendTag(b []byte, num int, wt byte) []byte {
	return appendUvarint(b, uint64(num)<<1|uint64(wt))
}

// Zero/empty fields are omitted: absent means zero.

func appendVarintField(b []byte, num int, v uint64) []byte {
	if v == 0 {
		return b
	}
	b = appendTag(b, num, wtVarint)
	return appendUvarint(b, v)
}

func appendStringField(b []byte, num int, s string) []byte {
	if s == "" {
		return b
	}
	b = appendTag(b, num, wtBytes)
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytesField(b []byte, num int, data []byte) []byte {
	if len(data) == 0 {
		return b
	}
	b = appendTag(b, num, wtBytes)
	b = appendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func appendStringsField(b []byte, num int, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	sz := uvarintLen(uint64(len(ss)))
	for _, s := range ss {
		sz += uvarintLen(uint64(len(s))) + len(s)
	}
	b = appendTag(b, num, wtBytes)
	b = appendUvarint(b, uint64(sz))
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

func decodeStrings(p []byte) ([]string, error) {
	count, pos, err := readUvarint(p, 0)
	if err != nil {
		return nil, err
	}
	if count > uint64(len(p)-pos) {
		return nil, codecErr("string list claims %d items in %d bytes", count, len(p)-pos)
	}
	out := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		n, npos, err := readUvarint(p, pos)
		if err != nil {
			return nil, err
		}
		pos = npos
		if n > uint64(len(p)-pos) {
			return nil, codecErr("string of %d bytes with %d remaining", n, len(p)-pos)
		}
		out = append(out, string(p[pos:pos+int(n)]))
		pos += int(n)
	}
	return out, nil
}

// ------------------------------------------------------ document codec

// Value type tags for the jsondoc value domain.
const (
	bvNull   = 0
	bvFalse  = 1
	bvTrue   = 2
	bvF64    = 3 // 8 bytes little-endian IEEE-754
	bvString = 4 // uvarint len + bytes
	bvArray  = 5 // uvarint count + values
	bvObject = 6 // uvarint count + (uvarint keylen + key + value)*
)

// sizeValue returns the encoded size of v without encoding it — the
// sizing pass lets nested length prefixes be written front-to-back in
// a single buffer with zero intermediate allocation.
func sizeValue(v any, depth int) (int, error) {
	if depth > maxValueDepth {
		return 0, codecErr("value nesting exceeds depth %d", maxValueDepth)
	}
	switch x := v.(type) {
	case nil:
		return 1, nil
	case bool:
		return 1, nil
	case float64:
		return 9, nil
	case string:
		return 1 + uvarintLen(uint64(len(x))) + len(x), nil
	case []any:
		sz := 1 + uvarintLen(uint64(len(x)))
		for _, e := range x {
			es, err := sizeValue(e, depth+1)
			if err != nil {
				return 0, err
			}
			sz += es
		}
		return sz, nil
	case map[string]any:
		return sizeObjectDepth(x, depth)
	case jsondoc.Doc:
		return sizeObjectDepth(x, depth)
	default:
		// Non-normalized numerics are carried as float64, exactly like
		// jsondoc.Normalize / a JSON round trip would.
		if _, ok := asFloat(v); ok {
			return 9, nil
		}
		return 0, codecErr("unsupported value type %T", v)
	}
}

func sizeObject(m map[string]any) (int, error) { return sizeObjectDepth(m, 0) }

func sizeObjectDepth(m map[string]any, depth int) (int, error) {
	if depth > maxValueDepth {
		return 0, codecErr("value nesting exceeds depth %d", maxValueDepth)
	}
	sz := 1 + uvarintLen(uint64(len(m)))
	for k, e := range m {
		es, err := sizeValue(e, depth+1)
		if err != nil {
			return 0, err
		}
		sz += uvarintLen(uint64(len(k))) + len(k) + es
	}
	return sz, nil
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int8:
		return float64(x), true
	case int16:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint:
		return float64(x), true
	case uint8:
		return float64(x), true
	case uint16:
		return float64(x), true
	case uint32:
		return float64(x), true
	case uint64:
		return float64(x), true
	case float32:
		return float64(x), true
	}
	return 0, false
}

func appendValue(b []byte, v any, depth int) ([]byte, error) {
	if depth > maxValueDepth {
		return b, codecErr("value nesting exceeds depth %d", maxValueDepth)
	}
	switch x := v.(type) {
	case nil:
		return append(b, bvNull), nil
	case bool:
		if x {
			return append(b, bvTrue), nil
		}
		return append(b, bvFalse), nil
	case float64:
		b = append(b, bvF64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(x)), nil
	case string:
		b = append(b, bvString)
		b = appendUvarint(b, uint64(len(x)))
		return append(b, x...), nil
	case []any:
		b = append(b, bvArray)
		b = appendUvarint(b, uint64(len(x)))
		var err error
		for _, e := range x {
			if b, err = appendValue(b, e, depth+1); err != nil {
				return b, err
			}
		}
		return b, nil
	case map[string]any:
		return appendObjectDepth(b, x, depth)
	case jsondoc.Doc:
		return appendObjectDepth(b, x, depth)
	default:
		if f, ok := asFloat(v); ok {
			b = append(b, bvF64)
			return binary.LittleEndian.AppendUint64(b, math.Float64bits(f)), nil
		}
		return b, codecErr("unsupported value type %T", v)
	}
}

func appendObject(b []byte, m map[string]any) ([]byte, error) {
	return appendObjectDepth(b, m, 0)
}

func appendObjectDepth(b []byte, m map[string]any, depth int) ([]byte, error) {
	if depth > maxValueDepth {
		return b, codecErr("value nesting exceeds depth %d", maxValueDepth)
	}
	b = append(b, bvObject)
	b = appendUvarint(b, uint64(len(m)))
	var err error
	for k, e := range m {
		b = appendUvarint(b, uint64(len(k)))
		b = append(b, k...)
		if b, err = appendValue(b, e, depth+1); err != nil {
			return b, err
		}
	}
	return b, nil
}

// decodeValue decodes one value starting at pos, returning the value
// and the position just past it. All strings are copied out of p, so
// the decoded value never aliases a reused frame buffer.
func decodeValue(p []byte, pos, depth int) (any, int, error) {
	if depth > maxValueDepth {
		return nil, 0, codecErr("value nesting exceeds %d", maxValueDepth)
	}
	if pos >= len(p) {
		return nil, 0, codecErr("truncated value at %d", pos)
	}
	t := p[pos]
	pos++
	switch t {
	case bvNull:
		return nil, pos, nil
	case bvFalse:
		return false, pos, nil
	case bvTrue:
		return true, pos, nil
	case bvF64:
		if len(p)-pos < 8 {
			return nil, 0, codecErr("truncated float at %d", pos)
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(p[pos:]))
		return f, pos + 8, nil
	case bvString:
		n, npos, err := readUvarint(p, pos)
		if err != nil {
			return nil, 0, err
		}
		pos = npos
		if n > uint64(len(p)-pos) {
			return nil, 0, codecErr("string of %d bytes with %d remaining", n, len(p)-pos)
		}
		s := string(p[pos : pos+int(n)])
		return s, pos + int(n), nil
	case bvArray:
		n, npos, err := readUvarint(p, pos)
		if err != nil {
			return nil, 0, err
		}
		pos = npos
		// Each element costs at least one byte: a count beyond the bytes
		// remaining is rejected before the slice is sized from it.
		if n > uint64(len(p)-pos) {
			return nil, 0, codecErr("array claims %d items in %d bytes", n, len(p)-pos)
		}
		arr := make([]any, 0, n)
		for i := uint64(0); i < n; i++ {
			var e any
			e, pos, err = decodeValue(p, pos, depth+1)
			if err != nil {
				return nil, 0, err
			}
			arr = append(arr, e)
		}
		return arr, pos, nil
	case bvObject:
		n, npos, err := readUvarint(p, pos)
		if err != nil {
			return nil, 0, err
		}
		pos = npos
		// Each entry costs at least two bytes (key length + value tag).
		if n > uint64(len(p)-pos)/2 {
			return nil, 0, codecErr("object claims %d entries in %d bytes", n, len(p)-pos)
		}
		m := make(map[string]any, n)
		for i := uint64(0); i < n; i++ {
			kl, kpos, err := readUvarint(p, pos)
			if err != nil {
				return nil, 0, err
			}
			pos = kpos
			if kl > uint64(len(p)-pos) {
				return nil, 0, codecErr("object key of %d bytes with %d remaining", kl, len(p)-pos)
			}
			k := string(p[pos : pos+int(kl)])
			pos += int(kl)
			var e any
			e, pos, err = decodeValue(p, pos, depth+1)
			if err != nil {
				return nil, 0, err
			}
			m[k] = e
		}
		return m, pos, nil
	default:
		return nil, 0, codecErr("unknown value tag 0x%02x at %d", t, pos-1)
	}
}

func appendDocField(b []byte, num int, d jsondoc.Doc) ([]byte, error) {
	if len(d) == 0 {
		return b, nil
	}
	sz, err := sizeObject(d)
	if err != nil {
		return b, err
	}
	b = appendTag(b, num, wtBytes)
	b = appendUvarint(b, uint64(sz))
	return appendObject(b, d)
}

func decodeDoc(p []byte) (jsondoc.Doc, error) {
	v, pos, err := decodeValue(p, 0, 0)
	if err != nil {
		return nil, err
	}
	if pos != len(p) {
		return nil, codecErr("%d trailing bytes after document", len(p)-pos)
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, codecErr("document field holds %T, want object", v)
	}
	return jsondoc.Doc(m), nil
}

func appendDocsField(b []byte, num int, docs []jsondoc.Doc) ([]byte, error) {
	if len(docs) == 0 {
		return b, nil
	}
	sz := uvarintLen(uint64(len(docs)))
	for _, d := range docs {
		ds, err := sizeObject(d)
		if err != nil {
			return b, err
		}
		sz += ds
	}
	b = appendTag(b, num, wtBytes)
	b = appendUvarint(b, uint64(sz))
	b = appendUvarint(b, uint64(len(docs)))
	var err error
	for _, d := range docs {
		if b, err = appendObject(b, d); err != nil {
			return b, err
		}
	}
	return b, nil
}

func decodeDocs(p []byte) ([]jsondoc.Doc, error) {
	count, pos, err := readUvarint(p, 0)
	if err != nil {
		return nil, err
	}
	if count > uint64(len(p)-pos) {
		return nil, codecErr("doc list claims %d items in %d bytes", count, len(p)-pos)
	}
	out := make([]jsondoc.Doc, 0, count)
	for i := uint64(0); i < count; i++ {
		var v any
		v, pos, err = decodeValue(p, pos, 0)
		if err != nil {
			return nil, err
		}
		m, ok := v.(map[string]any)
		if !ok {
			return nil, codecErr("doc list item %d holds %T, want object", i, v)
		}
		out = append(out, jsondoc.Doc(m))
	}
	return out, nil
}

// --------------------------------------------------- request envelope

// Binary field numbers for the request envelope. Numbers are permanent
// once shipped — new fields take new numbers, and a retired number is
// never reused. Retired: 3 (shard-map version), 9 (bulk documents), 10
// (cutover version) and 11 (codec features).
const (
	rfOp       = 1
	rfShard    = 2
	rfDeadline = 4
	rfIdemKey  = 5
	rfID       = 6
	rfIDs      = 7
	rfDoc      = 8
)

func appendBinaryRequest(b []byte, corr uint64, req *request) ([]byte, error) {
	b = append(b, binVersion, binKindRequest)
	b = appendUvarint(b, corr)
	b = appendStringField(b, rfOp, req.Op)
	b = appendVarintField(b, rfShard, uint64(req.Shard))
	b = appendVarintField(b, rfDeadline, uint64(req.DeadlineUnixMicro))
	b = appendStringField(b, rfIdemKey, req.IdemKey)
	b = appendStringField(b, rfID, req.ID)
	b = appendStringsField(b, rfIDs, req.IDs)
	return appendDocField(b, rfDoc, req.Doc)
}

func decodeBinaryRequest(p []byte) (uint64, *request, error) {
	pos, err := checkBinaryHeader(p, binKindRequest)
	if err != nil {
		return 0, nil, err
	}
	corr, pos, err := readUvarint(p, pos)
	if err != nil {
		return 0, nil, err
	}
	req := new(request)
	for pos < len(p) {
		num, wt, v, fp, npos, err := readField(p, pos)
		if err != nil {
			return 0, nil, err
		}
		pos = npos
		if wt == wtVarint {
			switch num {
			case rfShard:
				req.Shard = int(v)
			case rfDeadline:
				req.DeadlineUnixMicro = int64(v)
			}
			continue
		}
		switch num {
		case rfOp:
			req.Op = string(fp)
		case rfIdemKey:
			req.IdemKey = string(fp)
		case rfID:
			req.ID = string(fp)
		case rfIDs:
			if req.IDs, err = decodeStrings(fp); err != nil {
				return 0, nil, err
			}
		case rfDoc:
			if req.Doc, err = decodeDoc(fp); err != nil {
				return 0, nil, err
			}
		}
	}
	return corr, req, nil
}

// -------------------------------------------------- response envelope

// Binary field numbers for the response envelope, under the same rule.
// Retired: 8 (shard CRC), 9 (id → CRC manifest), 10, 11 and 12
// (replica health, stale replica count, resync report), 14 and 15
// (codec and mux negotiation).
const (
	pfErrCode  = 1
	pfErrMsg   = 2
	pfID       = 3
	pfIDs      = 4
	pfDoc      = 5
	pfDocs     = 6
	pfN        = 7
	pfWALBytes = 13
)

func appendBinaryResponse(b []byte, corr uint64, resp *response) ([]byte, error) {
	b = append(b, binVersion, binKindResponse)
	b = appendUvarint(b, corr)
	b = appendStringField(b, pfErrCode, resp.ErrCode)
	b = appendStringField(b, pfErrMsg, resp.ErrMsg)
	b = appendStringField(b, pfID, resp.ID)
	b = appendStringsField(b, pfIDs, resp.IDs)
	b, err := appendDocField(b, pfDoc, resp.Doc)
	if err != nil {
		return b, err
	}
	if b, err = appendDocsField(b, pfDocs, resp.Docs); err != nil {
		return b, err
	}
	b = appendVarintField(b, pfN, uint64(resp.N))
	b = appendVarintField(b, pfWALBytes, uint64(resp.WALBytes))
	return b, nil
}

func decodeBinaryResponse(p []byte) (uint64, *response, error) {
	pos, err := checkBinaryHeader(p, binKindResponse)
	if err != nil {
		return 0, nil, err
	}
	corr, pos, err := readUvarint(p, pos)
	if err != nil {
		return 0, nil, err
	}
	resp := new(response)
	for pos < len(p) {
		num, wt, v, fp, npos, err := readField(p, pos)
		if err != nil {
			return 0, nil, err
		}
		pos = npos
		if wt == wtVarint {
			switch num {
			case pfN:
				resp.N = int(v)
			case pfWALBytes:
				resp.WALBytes = int64(v)
			}
			continue
		}
		switch num {
		case pfErrCode:
			resp.ErrCode = string(fp)
		case pfErrMsg:
			resp.ErrMsg = string(fp)
		case pfID:
			resp.ID = string(fp)
		case pfIDs:
			if resp.IDs, err = decodeStrings(fp); err != nil {
				return 0, nil, err
			}
		case pfDoc:
			if resp.Doc, err = decodeDoc(fp); err != nil {
				return 0, nil, err
			}
		case pfDocs:
			if resp.Docs, err = decodeDocs(fp); err != nil {
				return 0, nil, err
			}
		}
	}
	return corr, resp, nil
}

// ------------------------------------------------------ shared decode

func checkBinaryHeader(p []byte, kind byte) (int, error) {
	if len(p) < 2 {
		return 0, codecErr("payload of %d bytes is too short", len(p))
	}
	if p[0] != binVersion {
		return 0, codecErr("unknown codec version 0x%02x", p[0])
	}
	if p[1] != kind {
		return 0, codecErr("payload kind 0x%02x, want 0x%02x", p[1], kind)
	}
	return 2, nil
}

// readField reads one tag and its value. For wtVarint fields the value
// is returned in v; for wtBytes fields the raw content is returned in
// fp (a subslice of p — callers must copy what they keep).
func readField(p []byte, pos int) (num int, wt byte, v uint64, fp []byte, npos int, err error) {
	tag, pos, err := readUvarint(p, pos)
	if err != nil {
		return 0, 0, 0, nil, 0, err
	}
	num = int(tag >> 1)
	wt = byte(tag & 1)
	if wt == wtVarint {
		v, pos, err = readUvarint(p, pos)
		if err != nil {
			return 0, 0, 0, nil, 0, err
		}
		return num, wt, v, nil, pos, nil
	}
	n, pos, err := readUvarint(p, pos)
	if err != nil {
		return 0, 0, 0, nil, 0, err
	}
	if n > uint64(len(p)-pos) {
		return 0, 0, 0, nil, 0, codecErr("field %d claims %d bytes with %d remaining", num, n, len(p)-pos)
	}
	return num, wt, 0, p[pos : pos+int(n)], pos + int(n), nil
}

// ------------------------------------------------------------ framing

// appendRequestFrame appends a complete binary frame (length prefix +
// payload) for req to b.
func appendRequestFrame(b []byte, corr uint64, req *request) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b, err := appendBinaryRequest(b, corr, req)
	if err != nil {
		return b, err
	}
	return finishFrame(b, start)
}

// appendResponseFrame appends a complete binary frame for resp to b.
func appendResponseFrame(b []byte, corr uint64, resp *response) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b, err := appendBinaryResponse(b, corr, resp)
	if err != nil {
		return b, err
	}
	return finishFrame(b, start)
}

func finishFrame(b []byte, start int) ([]byte, error) {
	n := len(b) - start - 4
	if n > maxFrame {
		return b, codecErr("frame of %d bytes exceeds %d limit", n, maxFrame)
	}
	binary.BigEndian.PutUint32(b[start:start+4], uint32(n))
	return b, nil
}

// readRawFrame reads one length-prefixed frame payload into *buf
// (grown as needed) and returns the payload slice. The version byte is
// checked before the buffer is sized from the length prefix, so a peer
// that speaks anything else costs the receiver five bytes read and no
// allocation, whatever length it claimed. The returned slice is only
// valid until the next call reusing the same buffer — decoders copy out
// everything they keep.
func readRawFrame(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 2 || n > maxFrame {
		return nil, codecErr("frame of %d bytes outside [2, %d]", n, maxFrame)
	}
	v, err := r.Peek(1)
	if err != nil {
		return nil, err
	}
	if v[0] != binVersion {
		return nil, codecErr("unknown codec version 0x%02x", v[0])
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	if _, err := io.ReadFull(r, *buf); err != nil {
		return nil, err
	}
	return *buf, nil
}
