package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"

	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/shardnet"
)

// Probe sizes: enough repetitions for a steady median, few enough to
// stay inside the run's time budget.
const (
	probeBatch   = 256 // the "256" of get_many_256
	probeBatches = 15
	probeGets    = 200
	probeInserts = 40
	codecReps    = 200
	jsondocReps  = 5
)

// layerProbes times single layers in isolation, on the documents the
// traced server holds: the shard tier over the wire, the same calls on a
// local collection (the floor without a wire), the wire codec, the WAL
// (insert with and without one) and the JSON document codec. Every call
// is a span of request 0.
func layerProbes(ctx context.Context, tr *tracer, ts *tracedServer, out values) error {
	coord := ts.sys.Coord
	all := coord.IDs()
	if len(all) < probeBatch {
		return fmt.Errorf("probes: store holds %d documents, want at least %d", len(all), probeBatch)
	}
	rng := rand.New(rand.NewSource(serverSeed))
	ids := make([]string, probeBatch)
	for i, j := range rng.Perm(len(all))[:probeBatch] {
		ids[i] = all[j]
	}

	var docs []jsondoc.Doc
	for i := 0; i < probeBatches; i++ {
		var err error
		tr.do("shardnet.get_many_256", 0, 0, func() { docs, _, err = coord.GetMany(ctx, ids) })
		if err != nil {
			return fmt.Errorf("probes: GetMany: %w", err)
		}
	}
	for i := 0; i < probeGets; i++ {
		var err error
		tr.do("shardnet.get", 0, 0, func() { _, err = coord.Get(ids[i%len(ids)]) })
		if err != nil {
			return fmt.Errorf("probes: Get: %w", err)
		}
	}

	// the same documents in a local collection: no wire, no processes
	local := docstore.Open(docstore.WithShards(numShards), docstore.WithReplicas(3)).Collection("publications")
	for _, d := range docs {
		var err error
		tr.do("docstore.insert", 0, 0, func() { _, err = local.Insert(d) })
		if err != nil {
			return fmt.Errorf("probes: local Insert: %w", err)
		}
	}
	for i := 0; i < probeBatches; i++ {
		var err error
		tr.do("docstore.get_many_256", 0, 0, func() { _, _, err = local.GetMany(ctx, ids) })
		if err != nil {
			return fmt.Errorf("probes: local GetMany: %w", err)
		}
	}

	// insert through the WAL-backed shard processes, then through an
	// in-process shard server without a WAL; the difference is the fsync
	nowal, err := shardnet.NewServer(shardnet.ServerConfig{Name: "shard0", Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = nowal.Serve(ln) }() // returns when Close closes the listener
	defer nowal.Close()
	nowalCoord, err := shardnet.Dial(shardnet.Config{}, []string{ln.Addr().String()})
	if err != nil {
		return err
	}
	defer nowalCoord.Close()
	for i := 0; i < probeInserts; i++ {
		d := docs[i%len(docs)].Clone()
		d["_id"] = fmt.Sprintf("probe-%06d", i)
		var err error
		tr.do("shardnet.insert", 0, 0, func() { _, err = coord.Insert(d) })
		if err != nil {
			return fmt.Errorf("probes: Insert: %w", err)
		}
		tr.do("shardnet.insert_nowal", 0, 0, func() { _, err = nowalCoord.Insert(d.Clone()) })
		if err != nil {
			return fmt.Errorf("probes: Insert without WAL: %w", err)
		}
	}

	// the wire codec on one results page's worth of real documents
	const page = 10
	for _, st := range shardnet.BenchWireCodecs(docs[0], docs[:page], ids[:page], codecReps) {
		if st.Codec != "b1" {
			continue
		}
		out["shardnet.codec_"+st.Op+"_encode_us"] = st.P50EncodeUs
		out["shardnet.codec_"+st.Op+"_decode_us"] = st.P50DecodeUs
		if st.Op == "get_many" {
			out["shardnet.wire_bytes_per_doc"] = float64(st.RespBytes) / page
		}
	}

	// the JSON document codec, per document
	var bytes float64
	encoded := make([][]byte, len(docs))
	for rep := 0; rep < jsondocReps; rep++ {
		tr.do("jsondoc.encode_256", 0, 0, func() {
			for i, d := range docs {
				encoded[i] = d.JSON()
			}
		})
		var err error
		tr.do("jsondoc.decode_256", 0, 0, func() {
			for _, b := range encoded {
				if _, err = jsondoc.FromJSON(b); err != nil {
					return
				}
			}
		})
		if err != nil {
			return fmt.Errorf("probes: FromJSON: %w", err)
		}
	}
	for _, b := range encoded {
		bytes += float64(len(b))
	}

	med := func(name string) float64 { return median(byName(tr.spans, name)) }
	out["shardnet.get_many_256_ms"] = med("shardnet.get_many_256")
	out["shardnet.get_ms"] = med("shardnet.get")
	out["shardnet.insert_ms"] = med("shardnet.insert")
	out["shardnet.insert_nowal_ms"] = med("shardnet.insert_nowal")
	out["shardnet.wal_fsync_ms"] = max(0, med("shardnet.insert")-med("shardnet.insert_nowal"))
	out["docstore.get_many_256_ms"] = med("docstore.get_many_256")
	out["docstore.insert_us"] = med("docstore.insert") * 1000
	out["jsondoc.encode_us_per_doc"] = med("jsondoc.encode_256") * 1000 / probeBatch
	out["jsondoc.decode_us_per_doc"] = med("jsondoc.decode_256") * 1000 / probeBatch
	out["jsondoc.bytes_per_doc"] = bytes / probeBatch
	return nil
}
