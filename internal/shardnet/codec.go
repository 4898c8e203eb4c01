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
// Document payloads are jsondoc's binary encoding (jsondoc/binary.go):
// a shard server copies the encodings its store holds straight into the
// frame, and a request's document is encoded from its tree. Decoding is
// reject-don't-allocate: every claimed length and element count is
// checked against the bytes actually remaining in the frame before any
// allocation is sized from it, so a corrupt or hostile frame costs at
// most the frame itself (already bounded by maxFrame).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"covidkg/internal/jsondoc"
)

const (
	binVersion      = 0x01
	binKindRequest  = 0x00
	binKindResponse = 0x01

	wtVarint = 0
	wtBytes  = 1
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
		return // let one-off giants (a big id listing or batch) go to GC instead of pinning the pool
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

func appendDocField(b []byte, num int, d jsondoc.Doc) ([]byte, error) {
	if len(d) == 0 {
		return b, nil
	}
	enc, err := jsondoc.AppendBinary(nil, d)
	if err != nil {
		return b, err
	}
	return appendBytesField(b, num, enc), nil
}

// appendDocsField writes a list of documents already in their encoded
// form: a count, then each encoding as it is.
func appendDocsField(b []byte, num int, encs [][]byte) []byte {
	if len(encs) == 0 {
		return b
	}
	sz := uvarintLen(uint64(len(encs)))
	for _, e := range encs {
		sz += len(e)
	}
	b = appendTag(b, num, wtBytes)
	b = appendUvarint(b, uint64(sz))
	b = appendUvarint(b, uint64(len(encs)))
	for _, e := range encs {
		b = append(b, e...)
	}
	return b
}

func decodeDocs(p []byte) ([]jsondoc.Doc, error) {
	count, pos, err := readUvarint(p, 0)
	if err != nil {
		return nil, err
	}
	// Each document costs at least two bytes (tag and count).
	if count > uint64(len(p)-pos)/2 {
		return nil, codecErr("doc list claims %d items in %d bytes", count, len(p)-pos)
	}
	out := make([]jsondoc.Doc, count)
	for i := range out {
		d, n, err := jsondoc.ReadBinary(p[pos:])
		if err != nil {
			return nil, codecErr("doc list item %d: %v", i, err)
		}
		out[i] = d
		pos += n
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
			if req.Doc, err = jsondoc.FromBinary(fp); err != nil {
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
	var err error
	if resp.EncDoc != nil {
		b = appendBytesField(b, pfDoc, resp.EncDoc)
	} else if b, err = appendDocField(b, pfDoc, resp.Doc); err != nil {
		return b, err
	}
	b = appendDocsField(b, pfDocs, resp.EncDocs)
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
			if resp.Doc, err = jsondoc.FromBinary(fp); err != nil {
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
