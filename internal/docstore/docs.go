package docstore

import (
	"context"
	"slices"

	"covidkg/internal/jsondoc"
)

// Docs is the document-collection surface the upper layers (the search
// engine, core.System, the API handlers) consume. It is implemented
// by shardnet.Coordinator, which scatter-gathers over shard servers, and
// by *Collection, one shard's store. The contract is identical either
// way:
//
//   - Writes are atomic per shard: an error means the write was not
//     applied, unless it wraps shardnet.ErrIndeterminate (a reply lost
//     after the frame was sent).
//   - Shard-scoped reads fail with a *ShardError wrapping
//     ErrShardUnavailable when the whole shard is dark, so degraded
//     readers can map the failure to a missing partition with
//     ShardOfError and keep serving partial results.
//   - ScanContext fails loudly on a dark shard — full scans must not
//     silently drop a partition. Every implementation scans through
//     Scan, so one corpus is scanned in one order on every topology.
type Docs interface {
	// Name returns the collection name.
	Name() string

	// Insert stores a document (assigning a missing _id) and returns
	// its id. The write either fully commits or is not applied at all.
	Insert(d jsondoc.Doc) (string, error)
	// Get returns a deep copy of one document, or ErrNotFound, or a
	// *ShardError wrapping ErrShardUnavailable when its shard is dark.
	Get(id string) (jsondoc.Doc, error)
	// GetMany fetches a batch of documents in one pass, letting a
	// networked implementation coalesce the batch into one frame per
	// shard instead of one round trip per id. docs aligns 1:1 with ids
	// — docs[i] is nil when ids[i] is absent or its shard is dark — and
	// missing lists the dark shard indices (sorted, deduplicated), so
	// degraded readers get the same partial-results contract per batch
	// that Get gives per id. The error reports only total failures
	// (a dead context), never a missing document or dark shard.
	GetMany(ctx context.Context, ids []string) (docs []jsondoc.Doc, missing []int, err error)
	// Delete removes one document with the same atomicity as Insert.
	Delete(id string) error

	// Count returns the number of stored documents.
	Count() int
	// IDs returns every document id, sorted.
	IDs() []string
	// ScanContext streams every document in id order, holding one
	// batch of decoded documents at a time; fn returning false stops
	// the scan. It fails loudly on a dark shard or a dead context.
	ScanContext(ctx context.Context, fn func(jsondoc.Doc) bool) error

	// NumShards returns the shard count documents are partitioned over.
	NumShards() int
	// ShardOfID returns the shard index an id is placed on.
	ShardOfID(id string) int
	// ShardIDsContext lists one shard's document ids (sorted) without
	// materializing documents.
	ShardIDsContext(ctx context.Context, si int) ([]string, error)
	// AllShardsServing reports whether every shard can currently serve
	// reads — the cheap gate search checks before ranking a query from
	// the index alone.
	AllShardsServing() bool
}

var _ Docs = (*Collection)(nil)

// ScanBatchSize is how many ids Scan reads through one GetMany.
const ScanBatchSize = 256

// ScanCheckInterval is how many documents Scan hands to its callback
// between context checks; it bounds how long a cancelled scan keeps
// calling back.
const ScanCheckInterval = 64

// Scan streams every document of d to fn in id order; fn returning
// false stops the scan. It lists each shard's ids with ShardIDsContext,
// merges them into id order and reads them ScanBatchSize at a time
// through GetMany, so the order depends on the ids alone, never on
// their placement, and one batch of decoded documents is held at a
// time. A document deleted after the listing is skipped. A shard that
// cannot list its ids, or that a batch reports missing, fails the scan
// with its *ShardError. ctx is checked before every batch and every
// ScanCheckInterval documents, so a client that hung up stops costing
// CPU within one interval.
func Scan(ctx context.Context, d Docs, fn func(jsondoc.Doc) bool) error {
	var ids []string
	for si := range d.NumShards() {
		shardIDs, err := d.ShardIDsContext(ctx, si)
		if err != nil {
			return err
		}
		ids = append(ids, shardIDs...)
	}
	slices.Sort(ids)
	n := 0
	for len(ids) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := ids[:min(ScanBatchSize, len(ids))]
		ids = ids[len(batch):]
		docs, missing, err := d.GetMany(ctx, batch)
		if err != nil {
			return err
		}
		if len(missing) > 0 {
			return &ShardError{Shard: missing[0], Err: ErrShardUnavailable}
		}
		for _, doc := range docs {
			if doc == nil {
				continue // deleted after the listing
			}
			n++
			if n%ScanCheckInterval == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			if !fn(doc) {
				return nil
			}
		}
	}
	return nil
}
