package shardnet

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"strings"
	"testing"

	"covidkg/internal/jsondoc"
)

// TestNonFiniteInsertFrameIsBadRequest: an insert frame whose document
// carries NaN or ±Inf — which the transport encoding carries bit for
// bit — is answered bad_request on the same connection, which keeps
// serving; nothing reaches the store or the WAL. A request for the
// retired snapshot op is answered bad_request the same way.
func TestNonFiniteInsertFrameIsBadRequest(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "shard.wal")
	srv, addr := startServer(t, "shard0", walPath)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var buf []byte
	exchange := func(corr uint64, req *request) *response {
		t.Helper()
		frame, err := appendRequestFrame(nil, corr, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		payload, err := readRawFrame(br, &buf)
		if err != nil {
			t.Fatalf("no answer to request %d: %v", corr, err)
		}
		gotCorr, resp, err := decodeBinaryResponse(payload)
		if err != nil || gotCorr != corr {
			t.Fatalf("response corr %d, err %v; want corr %d", gotCorr, err, corr)
		}
		return resp
	}

	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		id := fmt.Sprintf("bad-%d", i)
		doc := jsondoc.Doc{"_id": id, "tables": []any{map[string]any{"cells": []any{"5 mg", bad}}}}
		resp := exchange(uint64(1+i), &request{Op: opInsert, IdemKey: id, Doc: doc})
		if resp.ErrCode != codeBadRequest || !strings.Contains(resp.ErrMsg, "non-finite") {
			t.Fatalf("insert with %v answered %q %q, want %q", bad, resp.ErrCode, resp.ErrMsg, codeBadRequest)
		}
	}
	if resp := exchange(9, &request{Op: "snapshot"}); resp.ErrCode != codeBadRequest || !strings.Contains(resp.ErrMsg, "unknown op") {
		t.Fatalf("retired snapshot op answered %q %q, want %q", resp.ErrCode, resp.ErrMsg, codeBadRequest)
	}
	if resp := exchange(10, &request{Op: opInsert, Doc: pubDoc("good", 1)}); resp.ErrCode != "" || resp.ID != "good" {
		t.Fatalf("valid insert after the rejections answered %+v", resp)
	}
	if resp := exchange(11, &request{Op: opGet, ID: "good"}); resp.ErrCode != "" || resp.Doc.GetString("title") != pubDoc("good", 1)["title"] {
		t.Fatalf("get after the rejections answered %+v", resp)
	}
	if n := srv.coll.Count(); n != 1 {
		t.Fatalf("store holds %d documents, want only the valid one", n)
	}
	srv.Close()
	replayed := 0
	w, err := openWAL(walPath, func(rec walRecord) {
		replayed++
		if rec.ID != "good" {
			t.Errorf("wal logged %q", rec.ID)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	w.close()
	if replayed != 1 {
		t.Fatalf("wal holds %d records, want 1", replayed)
	}
}

// sizedDoc is a publication-shaped document of about kb KB whose
// table rows grow with it, so decoding or re-encoding it would cost
// allocations in proportion to its size.
func sizedDoc(id string, kb int) jsondoc.Doc {
	rows := make([]any, 8*kb)
	for i := range rows {
		rows[i] = []any{fmt.Sprintf("cell %d", i), float64(i) + 0.5}
	}
	return jsondoc.Doc{
		"_id":      id,
		"title":    "Serology under surge conditions",
		"abstract": strings.Repeat("antibody response ", 45*kb),
		"tables":   []any{map[string]any{"rows": rows}},
	}
}

// TestGetManyAllocsIndependentOfDocSize: a shard server answers get and
// get_many by copying stored encodings into the frame, so each reply
// over 10 documents of 30 KB allocates exactly as often as over 10
// documents of 1 KB — the server neither decodes nor encodes a
// document.
func TestGetManyAllocsIndependentOfDocSize(t *testing.T) {
	ids := make([]string, 10)
	for i := range ids {
		ids[i] = fmt.Sprintf("doc-%d", i)
	}
	reqs := []*request{{Op: opGetMany, IDs: ids}, {Op: opGet, ID: ids[3]}}
	allocs := func(kb int) []float64 {
		srv, err := NewServer(ServerConfig{Name: "shard0", Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		for _, id := range ids {
			if _, err := srv.coll.Insert(sizedDoc(id, kb)); err != nil {
				t.Fatal(err)
			}
		}
		buf := getBuf()
		defer putBuf(buf)
		out := make([]float64, len(reqs))
		for i, req := range reqs {
			out[i] = testing.AllocsPerRun(50, func() {
				resp := srv.dispatch(req)
				if resp.ErrCode != "" {
					t.Fatalf("%s answered %s %s", req.Op, resp.ErrCode, resp.ErrMsg)
				}
				frame, err := appendResponseFrame((*buf)[:0], 1, resp)
				if err != nil {
					t.Fatal(err)
				}
				*buf = frame
			})
		}
		return out
	}
	small, large := allocs(1), allocs(30)
	for i, req := range reqs {
		if small[i] != large[i] {
			t.Errorf("%s over 10 documents allocates %v times at 1 KB, %v at 30 KB", req.Op, small[i], large[i])
		}
	}
	t.Logf("allocs for %s, %s: %v at 1 KB, %v at 30 KB", reqs[0].Op, reqs[1].Op, small, large)
}
