// Package jsondoc provides the JSON document model used throughout the
// COVIDKG system. Documents are what the sharded store persists, what the
// aggregation pipeline streams, and what the search engines rank.
//
// A document is a map[string]any restricted to the JSON value domain:
//
//	nil, bool, float64, string, []any, map[string]any
//
// Integers are normalized to float64 on entry, mirroring the semantics of
// a JSON store. The package adds dotted-path access ("authors.0.name"),
// deep copy, deep equality, and a total ordering over values so that
// indexes and $sort stages behave deterministically.
package jsondoc

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Doc is a JSON document. Keys are field names; values are JSON values.
type Doc map[string]any

// New returns an empty document.
func New() Doc { return Doc{} }

// FromJSON parses a JSON object into a Doc.
func FromJSON(data []byte) (Doc, error) {
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("jsondoc: parse: %w", err)
	}
	return d, nil
}

// MustFromJSON is FromJSON that panics on error; intended for tests and
// static literals.
func MustFromJSON(data string) Doc {
	d, err := FromJSON([]byte(data))
	if err != nil {
		panic(err)
	}
	return d
}

// JSON serializes the document to compact JSON.
func (d Doc) JSON() []byte {
	b, err := json.Marshal(map[string]any(d))
	if err != nil {
		// A Doc holds only JSON values by construction; marshal cannot
		// fail unless the caller smuggled in an unsupported type.
		panic(fmt.Sprintf("jsondoc: marshal: %v", err))
	}
	return b
}

// String returns the compact JSON form.
func (d Doc) String() string { return string(d.JSON()) }

// Normalize converts integer-typed values (int, int64, ...) to float64 in
// place recursively, so documents built in Go code compare equal to
// documents round-tripped through JSON.
func Normalize(v any) any {
	switch x := v.(type) {
	case nil, bool, float64, string:
		return x
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = Normalize(e)
		}
		return out
	case []string:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = e
		}
		return out
	case []float64:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = e
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = Normalize(e)
		}
		return out
	case Doc:
		return Normalize(map[string]any(x))
	default:
		if f, ok := asFloat(x); ok {
			return f
		}
		// Last resort: round-trip through JSON. Callers should not rely
		// on this path for performance-sensitive code.
		b, err := json.Marshal(x)
		if err != nil {
			panic(fmt.Sprintf("jsondoc: cannot normalize %T", v))
		}
		var out any
		if err := json.Unmarshal(b, &out); err != nil {
			panic(fmt.Sprintf("jsondoc: cannot normalize %T", v))
		}
		return out
	}
}

// NormalizeDoc returns the document with all values normalized in a fresh
// map.
func NormalizeDoc(d Doc) Doc {
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = Normalize(v)
	}
	return out
}

// Clone deep-copies the document.
func (d Doc) Clone() Doc {
	if d == nil {
		return nil
	}
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = cloneValue(v)
	}
	return out
}

func cloneValue(v any) any {
	switch x := v.(type) {
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = cloneValue(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = cloneValue(e)
		}
		return out
	case Doc:
		return map[string]any(x.Clone())
	default:
		return x
	}
}

// Get resolves a dotted path against the document. A path segment that
// parses as a non-negative integer indexes into arrays. The second return
// reports whether the full path resolved.
func (d Doc) Get(path string) (any, bool) {
	if path != "" && strings.IndexByte(path, '.') < 0 {
		v, ok := d[path] // top-level key: no path slice to allocate
		return v, ok
	}
	return getPath(map[string]any(d), splitPath(path))
}

// GetString resolves path and returns its string value, or "" if absent
// or non-string.
func (d Doc) GetString(path string) string {
	v, ok := d.Get(path)
	if !ok {
		return ""
	}
	s, _ := v.(string)
	return s
}

// GetNumber resolves path and returns its numeric value. ok is false if
// the path is absent or not a number.
func (d Doc) GetNumber(path string) (float64, bool) {
	v, _ := d.Get(path)
	return asFloat(v)
}

// GetArray resolves path and returns its array value, or nil if absent or
// not an array.
func (d Doc) GetArray(path string) []any {
	v, ok := d.Get(path)
	if !ok {
		return nil
	}
	a, _ := v.([]any)
	return a
}

// GetDoc resolves path and returns the nested object as a Doc, or nil.
func (d Doc) GetDoc(path string) Doc {
	v, ok := d.Get(path)
	if !ok {
		return nil
	}
	switch m := v.(type) {
	case map[string]any:
		return Doc(m)
	case Doc:
		return m
	}
	return nil
}

// Set writes value at the dotted path, creating intermediate objects as
// needed. Array segments must already exist and be in range; Set returns
// an error otherwise.
func (d Doc) Set(path string, value any) error {
	segs := splitPath(path)
	if len(segs) == 0 {
		return fmt.Errorf("jsondoc: empty path")
	}
	return setPath(map[string]any(d), segs, Normalize(value))
}

// Delete removes the value at path. Deleting a missing path is a no-op.
func (d Doc) Delete(path string) {
	segs := splitPath(path)
	if len(segs) == 0 {
		return
	}
	cur := any(map[string]any(d))
	for _, seg := range segs[:len(segs)-1] {
		next, ok := step(cur, seg)
		if !ok {
			return
		}
		cur = next
	}
	if m, ok := asMap(cur); ok {
		delete(m, segs[len(segs)-1])
	}
}

// Has reports whether path resolves.
func (d Doc) Has(path string) bool {
	_, ok := d.Get(path)
	return ok
}

// Fields returns the document's top-level field names sorted.
func (d Doc) Fields() []string {
	out := make([]string, 0, len(d))
	for k := range d {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func splitPath(path string) []string {
	if path == "" {
		return nil
	}
	return strings.Split(path, ".")
}

func asMap(v any) (map[string]any, bool) {
	switch m := v.(type) {
	case map[string]any:
		return m, true
	case Doc:
		return map[string]any(m), true
	}
	return nil, false
}

func step(cur any, seg string) (any, bool) {
	if m, ok := asMap(cur); ok {
		v, ok := m[seg]
		return v, ok
	}
	if arr, ok := cur.([]any); ok {
		i, err := strconv.Atoi(seg)
		if err != nil || i < 0 || i >= len(arr) {
			return nil, false
		}
		return arr[i], true
	}
	return nil, false
}

func getPath(cur any, segs []string) (any, bool) {
	for _, seg := range segs {
		next, ok := step(cur, seg)
		if !ok {
			return nil, false
		}
		cur = next
	}
	return cur, true
}

func setPath(cur map[string]any, segs []string, value any) error {
	for i := 0; i < len(segs)-1; i++ {
		seg := segs[i]
		next, ok := cur[seg]
		if !ok {
			child := map[string]any{}
			cur[seg] = child
			cur = child
			continue
		}
		if m, ok := asMap(next); ok {
			cur = m
			continue
		}
		if arr, ok := next.([]any); ok {
			idx, err := strconv.Atoi(segs[i+1])
			if err != nil || idx < 0 || idx >= len(arr) {
				return fmt.Errorf("jsondoc: bad array index %q in path", segs[i+1])
			}
			if i+1 == len(segs)-1 {
				arr[idx] = value
				return nil
			}
			m, ok := asMap(arr[idx])
			if !ok {
				return fmt.Errorf("jsondoc: path traverses non-object array element")
			}
			cur = m
			i++ // consumed the index segment
			continue
		}
		return fmt.Errorf("jsondoc: path segment %q traverses scalar", seg)
	}
	cur[segs[len(segs)-1]] = value
	return nil
}

// typeRank orders the JSON types for cross-type comparison, mirroring the
// BSON comparison order used by document stores: null < number < string <
// object < array < bool.
func typeRank(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case float64, int, int64:
		return 1
	case string:
		return 2
	case map[string]any, Doc:
		return 3
	case []any:
		return 4
	case bool:
		return 5
	default:
		return 6
	}
}

// asFloat converts a value of a built-in Go numeric type to float64.
// Named types are left alone: they may marshal themselves differently.
func asFloat(v any) (float64, bool) {
	if f, ok := v.(float64); ok {
		return f, true
	}
	rv := reflect.ValueOf(v)
	if !rv.IsValid() || rv.Type().PkgPath() != "" {
		return 0, false
	}
	switch rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return float64(rv.Int()), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return float64(rv.Uint()), true
	case reflect.Float32, reflect.Float64:
		return rv.Float(), true
	}
	return 0, false
}

// Compare imposes a total order over JSON values: by type rank first, then
// within a type by natural order. Objects compare by sorted key sequence,
// then values; arrays element-wise then by length.
func Compare(a, b any) int {
	ra, rb := typeRank(a), typeRank(b)
	if ra != rb {
		return cmpInt(ra, rb)
	}
	switch ra {
	case 0:
		return 0
	case 1:
		fa, _ := asFloat(a)
		fb, _ := asFloat(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	case 2:
		return strings.Compare(a.(string), b.(string))
	case 3:
		ma, _ := asMap(a)
		mb, _ := asMap(b)
		ka, kb := sortedKeys(ma), sortedKeys(mb)
		for i := 0; i < len(ka) && i < len(kb); i++ {
			if c := strings.Compare(ka[i], kb[i]); c != 0 {
				return c
			}
			if c := Compare(ma[ka[i]], mb[kb[i]]); c != 0 {
				return c
			}
		}
		return cmpInt(len(ka), len(kb))
	case 4:
		aa, ab := a.([]any), b.([]any)
		for i := 0; i < len(aa) && i < len(ab); i++ {
			if c := Compare(aa[i], ab[i]); c != 0 {
				return c
			}
		}
		return cmpInt(len(aa), len(ab))
	case 5:
		ba, bb := a.(bool), b.(bool)
		switch {
		case !ba && bb:
			return -1
		case ba && !bb:
			return 1
		}
		return 0
	}
	return 0
}

// Equal reports deep equality under Compare semantics.
func Equal(a, b any) bool { return Compare(a, b) == 0 }

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
