package docstore

import (
	"context"

	"covidkg/internal/jsondoc"
)

// Docs is the document-collection surface the upper layers (the search
// engine, core.System, the API handlers) consume. It is implemented
// both by the in-process *Collection — every shard inside this
// process — and by shardnet.Coordinator, which serves the same
// operations by scatter-gathering over remote shard server processes.
// The contract is identical either way:
//
//   - Writes are atomic per shard: an error means the write was not
//     applied (ErrNoQuorum locally, a definitive rejection remotely).
//   - Shard-scoped reads fail with a *ShardError wrapping
//     ErrShardUnavailable when the whole shard is dark, so degraded
//     readers can map the failure to a missing partition with
//     ShardOfError and keep serving partial results.
//   - ScanContext fails loudly on a dark shard — full scans must not
//     silently drop a partition.
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
	// Scan streams a snapshot of every document in deterministic order;
	// fn returning false stops the scan. Dark shards end the scan early.
	Scan(fn func(jsondoc.Doc) bool)
	// ScanContext is Scan under a request context, failing loudly on a
	// dark shard or a dead context.
	ScanContext(ctx context.Context, fn func(jsondoc.Doc) bool) error

	// NumShards returns the shard count documents are partitioned over.
	NumShards() int
	// ShardOfID returns the shard index an id is placed on.
	ShardOfID(id string) int
	// ShardIDsContext lists one shard's document ids (sorted) without
	// materializing documents.
	ShardIDsContext(ctx context.Context, si int) ([]string, error)
	// SnapshotShardContext returns a deep-copied snapshot of one shard,
	// ids sorted.
	SnapshotShardContext(ctx context.Context, si int) ([]jsondoc.Doc, error)
	// AllShardsServing reports whether every shard can currently serve
	// reads — the cheap gate search checks before ranking a query from
	// the index alone.
	AllShardsServing() bool
}

// The in-process collection is the reference implementation.
var _ Docs = (*Collection)(nil)
