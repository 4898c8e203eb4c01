package docstore

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"

	"covidkg/internal/durable"
	"covidkg/internal/jsondoc"
)

// SaveTxn writes every collection as one JSON-lines file per collection
// (<name>.jsonl) into an open snapshot transaction — the store's half
// of core.System.Checkpoint, which commits it together with the graph
// and models under one manifest. The on-disk order is the scan's id
// order, so saves of equal stores are byte-identical, whatever their
// shard counts.
func (s *Store) SaveTxn(tx *durable.Txn) error {
	for _, name := range s.CollectionNames() {
		c := s.Collection(name)
		w, err := tx.Create(name + ".jsonl")
		if err != nil {
			return fmt.Errorf("docstore: save %s: %w", name, err)
		}
		if err := c.writeTo(w); err != nil {
			w.Close()
			return fmt.Errorf("docstore: save %s: %w", name, err)
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("docstore: save %s: %w", name, err)
		}
	}
	return nil
}

// writeTo streams the collection as JSON lines in deterministic order.
func (c *Collection) writeTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var werr error
	scanErr := c.ScanContext(context.Background(), func(d jsondoc.Doc) bool {
		if _, err := bw.Write(d.JSON()); err != nil {
			werr = err
			return false
		}
		if err := bw.WriteByte('\n'); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	if scanErr != nil {
		return scanErr
	}
	return bw.Flush()
}

// LoadSnapshot fills the store from a verified snapshot's *.jsonl
// files, replacing same-named collections. Non-collection files (the
// checkpointed graph and models) are ignored.
func (s *Store) LoadSnapshot(sn *durable.Snapshot) error {
	for _, fname := range sn.Names() {
		if !strings.HasSuffix(fname, ".jsonl") {
			continue
		}
		name := strings.TrimSuffix(fname, ".jsonl")
		data, err := sn.ReadFile(fname)
		if err != nil {
			return fmt.Errorf("docstore: load %s: %w", name, err)
		}
		s.DropCollection(name)
		if err := s.Collection(name).loadLines(data); err != nil {
			return err
		}
	}
	return nil
}

// loadLines inserts one JSON document per non-blank line. A line may be
// as long as its writer made it: there is no line-length cap.
func (c *Collection) loadLines(data []byte) error {
	for line := 1; len(data) > 0; line++ {
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
		d, err := jsondoc.FromJSON(raw)
		if err != nil {
			return fmt.Errorf("docstore: load %s line %d: %w", c.name, line, err)
		}
		if _, err := c.Insert(d); err != nil {
			return fmt.Errorf("docstore: load %s line %d: %w", c.name, line, err)
		}
	}
	return nil
}
