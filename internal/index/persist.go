package index

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"covidkg/internal/durable"
)

// segMagic versions the segment file format. A segment's per-term
// bounds were computed under the field weights, so changing the weights
// bumps it too: a restore re-indexes rather than read another magic.
const segMagic = "CKGSEG1"

// persistMeta is the index-level manifest stored alongside the segment
// files inside a durable snapshot generation.
type persistMeta struct {
	CrossSource bool               `json:"cross_source"`
	Weights     map[string]float64 `json:"weights,omitempty"`
	Segments    []string           `json:"segments"`
}

// WriteTxn seals the memtable and writes the index into tx, the
// generation a system checkpoint commits: index.json plus one
// seg-N.bin per sealed segment. Segments are encoded under the read
// lock, because Remove tombstones them in place. A document added after
// the seal is not written; the restore's catch-up indexes it.
func (ix *Index) WriteTxn(tx *durable.Txn) error {
	ix.Seal()
	ix.mu.RLock()
	meta := persistMeta{CrossSource: ix.crossSource, Weights: ix.weights}
	blobs := make([][]byte, len(ix.segs))
	for i, s := range ix.segs {
		meta.Segments = append(meta.Segments, fmt.Sprintf("seg-%d.bin", s.id))
		blobs[i] = encodeSegment(s)
	}
	ix.mu.RUnlock()

	mb, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("index: write: %w", err)
	}
	if err := tx.WriteFile("index.json", mb); err != nil {
		return fmt.Errorf("index: write: %w", err)
	}
	for i, b := range blobs {
		if err := tx.WriteFile(meta.Segments[i], b); err != nil {
			return fmt.Errorf("index: write: %w", err)
		}
	}
	return nil
}

// Read rebuilds the index WriteTxn wrote into sn. It fails when sn holds
// no index, or a segment that is malformed or in another format.
func Read(sn *durable.Snapshot) (*Index, error) {
	mb, err := sn.ReadFile("index.json")
	if err != nil {
		return nil, fmt.Errorf("index: read: %w", err)
	}
	var meta persistMeta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, fmt.Errorf("index: read index.json: %w", err)
	}
	ix := New()
	ix.crossSource = meta.CrossSource
	ix.weights = meta.Weights
	for _, name := range meta.Segments {
		data, err := sn.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("index: read: %w", err)
		}
		s, err := decodeSegment(data)
		if err != nil {
			return nil, fmt.Errorf("index: read %s: %w", name, err)
		}
		ix.segs = append(ix.segs, s)
		ix.nextSeg = max(ix.nextSeg, s.id+1)
	}
	return ix, nil
}

// encodeSegment serializes one segment (including tombstone state).
// Posting data is already compressed; the container just frames the
// dictionaries and tables around it.
func encodeSegment(s *segment) []byte {
	var b []byte
	b = append(b, segMagic...)
	b = binary.AppendUvarint(b, s.id)

	b = binary.AppendUvarint(b, uint64(len(s.docIDs)))
	for _, d := range s.docIDs {
		b = appendString(b, d)
	}
	b = binary.AppendUvarint(b, uint64(s.deadN))
	for ord, dead := range s.dead {
		if dead {
			b = binary.AppendUvarint(b, uint64(ord))
		}
	}

	b = binary.AppendUvarint(b, uint64(len(s.fields)))
	for _, f := range s.fields {
		b = appendString(b, f)
	}
	for _, n := range s.fieldLen {
		b = binary.AppendUvarint(b, uint64(n))
	}
	for _, v := range s.static {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}

	b = binary.AppendUvarint(b, uint64(len(s.terms)))
	for t, term := range s.terms {
		pl := &s.posts[t]
		b = appendString(b, term)
		b = binary.AppendUvarint(b, uint64(pl.df))
		b = binary.AppendUvarint(b, uint64(pl.maxRaw))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(pl.maxWTF))
		b = binary.AppendUvarint(b, uint64(len(pl.blockOff)))
		for i := range pl.blockOff {
			b = binary.AppendUvarint(b, uint64(pl.blockOff[i]))
			b = binary.AppendUvarint(b, uint64(pl.blockLast[i]))
		}
		b = binary.AppendUvarint(b, uint64(len(pl.data)))
		b = append(b, pl.data...)
	}
	return b
}

// segReader reads a segment's fields in order. The first malformed
// field sets err; every read after it returns zero values.
type segReader struct {
	b   []byte
	pos int
	err error
}

func (r *segReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format+" (byte %d of %d)", append(args, r.pos, len(r.b))...)
	}
}

func (r *segReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *segReader) u32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail("value %d overflows 32 bits", v)
	}
	return uint32(v)
}

// fits reports whether the bytes left can hold n items of at least size
// bytes each, failing the read when they cannot: a hostile count or
// length is refused before anything is allocated for it.
func (r *segReader) fits(n uint64, size int) bool {
	if r.err == nil && n > uint64(len(r.b)-r.pos)/uint64(size) {
		r.fail("%d items of %d+ bytes exceed the bytes left", n, size)
	}
	return r.err == nil
}

// count reads a count of items of at least size bytes each.
func (r *segReader) count(size int) int {
	n := r.uvarint()
	if !r.fits(n, size) {
		return 0
	}
	return int(n)
}

func (r *segReader) bytes(n int) []byte {
	if !r.fits(uint64(n), 1) {
		return nil
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *segReader) str() string { return string(r.bytes(r.count(1))) }

// ascending fails the read unless dict is strictly ascending, as every
// dictionary of a segment is.
func (r *segReader) ascending(dict []string) {
	for i := 1; i < len(dict); i++ {
		if dict[i] <= dict[i-1] {
			r.fail("%q does not sort after %q", dict[i], dict[i-1])
			return
		}
	}
}

func (r *segReader) f64() float64 {
	raw := r.bytes(8)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// minTermBytes is the least a term takes in a segment: a length, df,
// maxRaw, the 8-byte maxWTF, a block count and a data length.
const minTermBytes = 13

// decodeSegment rebuilds a segment from its serialized form, restoring
// the derived tables (field/term maps, ordTerms, delDF) that are not
// stored. The bytes come from disk, so every count is checked against
// the bytes left before it sizes an allocation, and checkPostings walks
// every posting list once: a malformed segment is an error, never a
// panic, and the query path needs no checks of its own.
func decodeSegment(data []byte) (*segment, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("bad segment magic")
	}
	r := &segReader{b: data, pos: len(segMagic)}
	s := &segment{id: r.uvarint()}

	nDocs := r.count(1)
	s.docIDs = make([]string, nDocs)
	for i := range s.docIDs {
		s.docIDs[i] = r.str()
	}
	r.ascending(s.docIDs)
	s.dead = make([]bool, nDocs)
	s.deadN = r.count(1)
	for i, prev := 0, -1; i < s.deadN && r.err == nil; i++ {
		ord := r.uvarint()
		if ord >= uint64(nDocs) || int(ord) <= prev {
			r.fail("tombstone ordinal %d out of order or range", ord)
			break
		}
		s.dead[ord] = true
		prev = int(ord)
	}

	nFields := r.count(1)
	s.fields = make([]string, nFields)
	s.fieldN = make(map[string]int, nFields)
	for i := range s.fields {
		s.fields[i] = r.str()
		s.fieldN[s.fields[i]] = i
	}
	r.ascending(s.fields)
	if r.fits(uint64(nDocs)*uint64(nFields), 1) {
		s.fieldLen = make([]uint32, nDocs*nFields)
	}
	for i := range s.fieldLen {
		s.fieldLen[i] = r.u32()
	}
	if r.fits(uint64(nDocs), 8) {
		s.static = make([]float64, nDocs)
	}
	for i := range s.static {
		s.static[i] = r.f64()
	}

	nTerms := r.count(minTermBytes)
	s.terms = make([]string, nTerms)
	s.termN = make(map[string]int, nTerms)
	s.posts = make([]postingList, nTerms)
	s.ordTerms = make([][]int32, nDocs)
	s.delDF = make([]int32, nTerms)
	for t := 0; t < nTerms && r.err == nil; t++ {
		s.terms[t] = r.str()
		s.termN[s.terms[t]] = t
		pl := &s.posts[t]
		pl.df = r.count(1)
		pl.maxRaw = int(r.uvarint())
		pl.maxWTF = r.f64()
		nBlocks := r.count(2)
		if r.err == nil && (pl.df > nDocs || nBlocks != (pl.df+blockEntries-1)/blockEntries) {
			r.fail("term %q: df %d in %d blocks over %d docs", s.terms[t], pl.df, nBlocks, nDocs)
		}
		pl.blockOff = make([]uint32, nBlocks)
		pl.blockLast = make([]uint32, nBlocks)
		for i := 0; i < nBlocks; i++ {
			pl.blockOff[i] = r.u32()
			pl.blockLast[i] = r.u32()
		}
		pl.data = append([]byte(nil), r.bytes(r.count(1))...)
		s.bytes += len(pl.data)
	}
	r.ascending(s.terms)
	if r.err == nil && r.pos != len(r.b) {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := s.checkPostings(); err != nil {
		return nil, err
	}
	return s, nil
}

// checkPostings walks every posting list of a decoded segment once, as
// decodeBlock reads it, and rebuilds ordTerms and delDF on the way.
// Block offsets must start at 0 and ascend within the data; each block
// must decode to exactly its entries and bytes, with blockLast naming its
// last ordinal; ordinals must ascend below the document count and field
// ids below the field count.
func (s *segment) checkPostings() error {
	for t := range s.posts {
		pl := &s.posts[t]
		prev := -1
		for b, off := range pl.blockOff {
			end := uint32(len(pl.data))
			if b+1 < len(pl.blockOff) {
				end = pl.blockOff[b+1]
			}
			if (b == 0 && off != 0) || off >= end || end > uint32(len(pl.data)) {
				return fmt.Errorf("term %q: block %d spans bytes %d..%d of %d", s.terms[t], b, off, end, len(pl.data))
			}
			r := &segReader{b: pl.data[off:end]}
			for i := 0; i < min(pl.df-b*blockEntries, blockEntries) && r.err == nil; i++ {
				ord := r.uvarint()
				if i > 0 {
					ord += uint64(prev)
				}
				if ord >= uint64(len(s.docIDs)) || int(ord) <= prev {
					r.fail("ordinal %d out of order or range", ord)
					break
				}
				prev = int(ord)
				s.ordTerms[ord] = append(s.ordTerms[ord], int32(t))
				if s.dead[ord] {
					s.delDF[t]++
				}
				nf, prevF := r.count(2), -1
				for f := 0; f < nf && r.err == nil; f++ {
					fid := r.uvarint()
					if fid >= uint64(len(s.fields)) || int(fid) <= prevF {
						r.fail("field id %d out of order or range", fid)
					}
					prevF = int(fid)
					for np := r.count(1); np > 0; np-- {
						r.uvarint()
					}
				}
			}
			if r.err == nil && r.pos != len(r.b) {
				r.fail("block holds trailing bytes")
			}
			if r.err == nil && pl.blockLast[b] != uint32(prev) {
				r.fail("block ends at ordinal %d, its boundary says %d", prev, pl.blockLast[b])
			}
			if r.err != nil {
				return fmt.Errorf("term %q block %d: %w", s.terms[t], b, r.err)
			}
		}
	}
	return nil
}
