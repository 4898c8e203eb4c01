package jsondoc

// binary.go is the document's binary encoding: the form a docstore
// shard keeps every document in, and the document payload of the shard
// wire and of its WAL. Each value is a one-byte type tag and its body:
//
//	null | false | true    the tag alone
//	number                 tag + 8 bytes little-endian IEEE-754
//	string                 tag + uvarint(len) + bytes
//	array                  tag + uvarint(count) + value*
//	object                 tag + uvarint(count) + (uvarint(keylen) + key + value)*
//
// Object keys are written in sorted order, so a document has exactly
// one encoding.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"
)

// MaxBinaryDepth bounds document nesting in both directions, so an
// input of nothing but open-array bytes cannot recurse the stack away.
const MaxBinaryDepth = 64

// ErrInvalid reports a Go type outside the document domain, nesting
// beyond MaxBinaryDepth, or (in Encode) a number JSON cannot hold.
var ErrInvalid = errors.New("jsondoc: value outside the document domain")

// Value type tags.
const (
	bvNull   = 0
	bvFalse  = 1
	bvTrue   = 2
	bvF64    = 3
	bvString = 4
	bvArray  = 5
	bvObject = 6
)

// AppendBinary appends d's encoding to b. Numbers travel bit for bit,
// NaN and ±Inf included: this is the transport form, which carries
// whatever its sender held and leaves refusing it to the store.
func AppendBinary(b []byte, d Doc) ([]byte, error) {
	return appendValue(b, map[string]any(d), 0, false)
}

var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Encode returns d's encoding in a slice of exactly its length, the
// form a store keeps. A NaN or ±Inf anywhere in d fails with
// ErrInvalid: no JSON can hold one, so it could not be checkpointed.
func Encode(d Doc) ([]byte, error) {
	sp := scratch.Get().(*[]byte)
	defer scratch.Put(sp)
	b, err := appendValue((*sp)[:0], map[string]any(d), 0, true)
	*sp = b
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

func appendValue(b []byte, v any, depth int, finite bool) ([]byte, error) {
	if depth > MaxBinaryDepth {
		return b, fmt.Errorf("%w: nesting exceeds depth %d", ErrInvalid, MaxBinaryDepth)
	}
	var err error
	switch x := v.(type) {
	case nil:
		return append(b, bvNull), nil
	case bool:
		if x {
			return append(b, bvTrue), nil
		}
		return append(b, bvFalse), nil
	case string:
		b = binary.AppendUvarint(append(b, bvString), uint64(len(x)))
		return append(b, x...), nil
	case []any:
		b = binary.AppendUvarint(append(b, bvArray), uint64(len(x)))
		for _, e := range x {
			if b, err = appendValue(b, e, depth+1, finite); err != nil {
				return b, err
			}
		}
		return b, nil
	case Doc:
		return appendValue(b, map[string]any(x), depth, finite)
	case map[string]any:
		var stack [16]string
		keys := stack[:0]
		for k := range x {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = binary.AppendUvarint(append(b, bvObject), uint64(len(keys)))
		for _, k := range keys {
			b = append(binary.AppendUvarint(b, uint64(len(k))), k...)
			if b, err = appendValue(b, x[k], depth+1, finite); err != nil {
				return b, err
			}
		}
		return b, nil
	}
	// Non-normalized numerics are carried as float64, exactly as
	// Normalize or a JSON round trip would.
	f, ok := asFloat(v)
	if !ok {
		return b, fmt.Errorf("%w: unsupported type %T", ErrInvalid, v)
	}
	if finite && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return b, fmt.Errorf("%w: non-finite number %v", ErrInvalid, f)
	}
	return binary.LittleEndian.AppendUint64(append(b, bvF64), math.Float64bits(f)), nil
}

// ReadBinary decodes the object encoded at the front of p and returns
// it with the number of bytes it took. Every string is copied, so the
// document never aliases p.
func ReadBinary(p []byte) (Doc, int, error) { return decode(p, false, false) }

// FromBinary decodes p, which must hold exactly one encoded object.
// Every string is copied, so the document never aliases p.
func FromBinary(p []byte) (Doc, error) {
	d, _, err := decode(p, false, true)
	return d, err
}

// FromBinaryAliased is FromBinary for an encoding nobody writes again,
// such as a store's own: every string, keys included, points into p, so
// any string the caller keeps keeps all of p alive.
func FromBinaryAliased(p []byte) (Doc, error) {
	d, _, err := decode(p, true, true)
	return d, err
}

// decoder decodes one document in two walks. The first checks every
// tag, length and count against the bytes there are and counts strings
// and numbers; only an input that checks out whole is built, so no
// allocation is sized by a count the input cannot back. The build points
// each string and number interface into one slab per kind instead of a
// heap box per value (a slot is never written once boxed).
type decoder struct {
	p            []byte
	alias, build bool
	nstrs, nnums int
	strs         []string
	nums         []float64
}

// decode decodes the object at the front of p, which must be all of p
// when whole is set.
func decode(p []byte, alias, whole bool) (Doc, int, error) {
	if len(p) == 0 || p[0] != bvObject {
		return nil, 0, decodeErr("document does not start with an object")
	}
	d := decoder{p: p, alias: alias}
	_, n, err := d.walk(0, 0)
	if err == nil && whole && n != len(p) {
		err = decodeErr("%d trailing bytes after document", len(p)-n)
	}
	if err != nil {
		return nil, 0, err
	}
	d.build = true
	d.strs, d.nums = make([]string, 0, d.nstrs), make([]float64, 0, d.nnums)
	v, _, _ := d.walk(0, 0)
	return Doc(v.(map[string]any)), n, nil
}

func decodeErr(format string, args ...any) error {
	return fmt.Errorf("jsondoc: decode: "+format, args...)
}

// lenAt reads the uvarint length or count at pos, returning it and the
// position past it; ok is false when the varint is malformed or claims
// more than the bytes remaining.
func lenAt(p []byte, pos int) (n, next int, ok bool) {
	v, k := binary.Uvarint(p[pos:])
	if k <= 0 || v > uint64(len(p)-pos-k) {
		return 0, 0, false
	}
	return int(v), pos + k, true
}

// walk checks, or with d.build builds, the value at pos and returns the
// position past it.
func (d *decoder) walk(pos, depth int) (any, int, error) {
	p := d.p
	if depth > MaxBinaryDepth || pos >= len(p) {
		return nil, 0, decodeErr("truncated value, or nesting beyond depth %d, at %d", MaxBinaryDepth, pos)
	}
	switch t := p[pos]; t {
	case bvNull:
		return nil, pos + 1, nil
	case bvFalse, bvTrue:
		return t == bvTrue, pos + 1, nil
	case bvF64:
		if len(p)-pos < 9 {
			return nil, 0, decodeErr("truncated number at %d", pos)
		}
		if d.nnums++; !d.build {
			return nil, pos + 9, nil
		}
		d.nums = append(d.nums, math.Float64frombits(binary.LittleEndian.Uint64(p[pos+1:])))
		return boxAt(float64Type, unsafe.Pointer(&d.nums[len(d.nums)-1])), pos + 9, nil
	case bvString, bvArray, bvObject:
		n, next, ok := lenAt(p, pos+1)
		if !ok {
			return nil, 0, decodeErr("malformed length after the tag at %d", pos)
		}
		pos = next
		if t == bvString {
			if d.nstrs++; !d.build {
				return nil, pos + n, nil
			}
			d.strs = append(d.strs, d.str(p[pos:pos+n]))
			return boxAt(stringType, unsafe.Pointer(&d.strs[len(d.strs)-1])), pos + n, nil
		}
		var arr []any
		var m map[string]any
		if d.build && t == bvArray {
			arr = make([]any, n)
		} else if d.build {
			m = make(map[string]any, n)
		}
		for i := 0; i < n; i++ {
			var k string
			if t == bvObject {
				kl, kpos, ok := lenAt(p, pos)
				if !ok {
					return nil, 0, decodeErr("malformed key length at %d", pos)
				}
				if d.build {
					k = d.str(p[kpos : kpos+kl])
				}
				pos = kpos + kl
			}
			v, next, err := d.walk(pos, depth+1)
			if err != nil {
				return nil, 0, err
			}
			if pos = next; arr != nil {
				arr[i] = v
			} else if m != nil {
				m[k] = v
			}
		}
		if t == bvArray {
			return arr, pos, nil
		}
		return m, pos, nil
	default:
		return nil, 0, decodeErr("unknown value tag 0x%02x at %d", t, pos)
	}
}

func (d *decoder) str(b []byte) string {
	if d.alias && len(b) > 0 {
		return unsafe.String(&b[0], len(b))
	}
	return string(b)
}

// eface is the runtime layout of an interface value.
type eface struct{ typ, data unsafe.Pointer }

func typeWord(v any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&v)).typ }

var stringType, float64Type = typeWord(""), typeWord(0.0)

// boxAt returns the interface value of type typ whose value is at data.
func boxAt(typ, data unsafe.Pointer) (v any) {
	*(*eface)(unsafe.Pointer(&v)) = eface{typ, data}
	return v
}
