package docstore

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/jsondoc"
)

// TestStoreRoundTripCorpus: over the 500-publication corpus, with ids
// given and assigned and Go integers in the input, Get returns exactly
// NormalizeDoc(input) plus its _id, and so do GetMany, the shard
// snapshots and a scan.
func TestStoreRoundTripCorpus(t *testing.T) {
	c := Open(WithShards(4)).Collection("pubs")
	want := map[string]jsondoc.Doc{}
	var ids []string
	for i, p := range cord19.NewGenerator(42).Corpus(500) {
		in := p.Doc()
		in["rank"] = i // an int, stored as float64
		if i%5 == 0 {
			delete(in, IDField) // assigned by the store
		}
		id, err := c.Insert(in)
		if err != nil {
			t.Fatal(err)
		}
		norm := jsondoc.NormalizeDoc(in)
		norm[IDField] = id
		want[id] = norm
		ids = append(ids, id)
	}
	for id, w := range want {
		got, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("Get(%s) differs from the normalized input", id)
		}
	}
	docs, missing, err := c.GetMany(context.Background(), ids)
	if err != nil || len(missing) > 0 {
		t.Fatalf("GetMany: missing %v, err %v", missing, err)
	}
	for i, d := range docs {
		if !reflect.DeepEqual(d, want[ids[i]]) {
			t.Fatalf("GetMany[%d] (%s) differs from the normalized input", i, ids[i])
		}
	}
	seen := 0
	if err := c.ScanContext(context.Background(), func(d jsondoc.Doc) bool {
		seen++
		if id := d.GetString(IDField); !reflect.DeepEqual(d, want[id]) {
			t.Fatalf("scanned %s differs from the normalized input", id)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Fatalf("scan saw %d documents, stored %d", seen, len(want))
	}
}

// mutateDeep rewrites every map entry and array element of v in place.
func mutateDeep(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			mutateDeep(e)
			x[k] = "mutated"
		}
		x["added"] = 1.0
	case []any:
		for i, e := range x {
			mutateDeep(e)
			x[i] = nil
		}
	}
}

// TestReturnedDocsIsolated: whatever a reader does to the maps and
// arrays of a document it got back — from Get, GetMany or a scan — the
// stored bytes and every later read are unchanged.
func TestReturnedDocsIsolated(t *testing.T) {
	c := Open(WithShards(2)).Collection("pubs")
	var ids []string
	stored := map[string][]byte{}
	for _, p := range cord19.NewGenerator(7).Corpus(40) {
		id, err := c.Insert(p.Doc())
		if err != nil {
			t.Fatal(err)
		}
		enc, err := c.GetBinary(id)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		stored[id] = bytes.Clone(enc)
	}
	ctx := context.Background()
	readers := map[string]func() []jsondoc.Doc{
		"Get": func() []jsondoc.Doc {
			d, err := c.Get(ids[3])
			if err != nil {
				t.Fatal(err)
			}
			return []jsondoc.Doc{d}
		},
		"GetMany": func() []jsondoc.Doc {
			docs, _, err := c.GetMany(ctx, ids)
			if err != nil {
				t.Fatal(err)
			}
			return docs
		},
		"ScanContext": func() []jsondoc.Doc {
			var docs []jsondoc.Doc
			if err := c.ScanContext(ctx, func(d jsondoc.Doc) bool { docs = append(docs, d); return true }); err != nil {
				t.Fatal(err)
			}
			return docs
		},
	}
	for name, read := range readers {
		for _, d := range read() {
			mutateDeep(map[string]any(d))
		}
		for _, id := range ids {
			enc, err := c.GetBinary(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, stored[id]) {
				t.Fatalf("mutating the documents %s returned changed the stored %s", name, id)
			}
			d, err := c.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if d.GetString(IDField) != id || d["added"] != nil {
				t.Fatalf("after mutating the documents %s returned, Get(%s) = %v", name, id, d)
			}
		}
	}
}

// TestNonFiniteWritesRejected: a NaN or ±Inf anywhere in a document
// fails Insert with jsondoc.ErrInvalid and changes nothing, so every
// stored document stays checkpointable.
func TestNonFiniteWritesRejected(t *testing.T) {
	c := Open(WithShards(2)).Collection("pubs")
	id, err := c.Insert(jsondoc.Doc{IDField: "ok", "n": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	before := c.IDs()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		doc := jsondoc.Doc{"nested": map[string]any{"cells": []any{"a", bad}}}
		if _, err := c.Insert(jsondoc.Doc{IDField: "bad", "n": bad}); !errors.Is(err, jsondoc.ErrInvalid) {
			t.Fatalf("Insert(%v) = %v, want ErrInvalid", bad, err)
		}
		if _, err := c.Insert(doc); !errors.Is(err, jsondoc.ErrInvalid) {
			t.Fatalf("Insert of a nested %v = %v, want ErrInvalid", bad, err)
		}
	}
	if after := c.IDs(); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected writes changed the store: %+v -> %+v", before, after)
	}
	if d, err := c.Get(id); err != nil || d["n"] != 1.0 {
		t.Fatalf("Get(%s) = %v, %v after rejected writes", id, d, err)
	}
}
