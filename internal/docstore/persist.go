package docstore

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"covidkg/internal/durable"
	"covidkg/internal/jsondoc"
)

// SaveTxn writes every document of d as JSON lines into <name>.jsonl of
// an open snapshot transaction — the publications' half of
// core.System.Checkpoint, which commits it together with the graph and
// models under one manifest. The on-disk order is the scan's id order,
// so saves of equal collections are byte-identical, however they are
// sharded.
func SaveTxn(tx *durable.Txn, d Docs) error {
	fname := d.Name() + ".jsonl"
	w, err := tx.Create(fname)
	if err != nil {
		return fmt.Errorf("docstore: save %s: %w", d.Name(), err)
	}
	bw := bufio.NewWriter(w)
	var werr error
	err = d.ScanContext(context.Background(), func(doc jsondoc.Doc) bool {
		if _, werr = bw.Write(doc.JSON()); werr == nil {
			werr = bw.WriteByte('\n')
		}
		return werr == nil
	})
	if err == nil {
		err = werr
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("docstore: save %s: %w", d.Name(), err)
	}
	return nil
}

// loadConcurrency bounds the lines LoadSnapshot decodes and inserts at
// once. Into a shard tier each insert is a round trip; in flight
// together they pipeline over the coordinator's multiplexed connections.
const loadConcurrency = 32

// LoadSnapshot inserts the documents of a verified snapshot's
// <name>.jsonl into d, one JSON document per non-blank line. A line may
// be as long as its writer made it: there is no line-length cap. A line
// that does not decode or insert stops the load, and the error names
// the lowest such line.
func LoadSnapshot(sn *durable.Snapshot, d Docs) error {
	data, err := sn.ReadFile(d.Name() + ".jsonl")
	if err != nil {
		return fmt.Errorf("docstore: load %s: %w", d.Name(), err)
	}
	var (
		mu       sync.Mutex
		firstErr error
		errLine  int
		failed   atomic.Bool
		wg       sync.WaitGroup
	)
	fail := func(line int, err error) {
		mu.Lock()
		defer mu.Unlock()
		failed.Store(true)
		if firstErr == nil || line < errLine {
			firstErr, errLine = fmt.Errorf("docstore: load %s line %d: %w", d.Name(), line, err), line
		}
	}
	inFlight := make(chan struct{}, loadConcurrency)
	for line := 1; len(data) > 0 && !failed.Load(); line++ {
		raw := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			raw, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 {
			continue
		}
		inFlight <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-inFlight; wg.Done() }()
			doc, err := jsondoc.FromJSON(raw)
			if err == nil {
				_, err = d.Insert(doc)
			}
			if err != nil {
				fail(line, err)
			}
		}()
	}
	wg.Wait()
	return firstErr
}
