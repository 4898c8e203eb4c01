package docstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrShardUnavailable reports an operation whose shard is dark: the
// coordinator could not reach the shard server, or its breaker is open.
// Readers that can degrade (search scatter-gather) catch it and return
// partial results instead of failing the whole query.
var ErrShardUnavailable = errors.New("docstore: shard unavailable")

// ShardError wraps a shard-level failure with the shard index, so
// degraded readers know which partition is missing from their results.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// ShardOfError extracts the shard index from a ShardError anywhere in
// err's chain. It unwraps with errors.As rather than a direct type
// assertion, so a shard failure that crossed a transport boundary and
// picked up wrapping layers on the way (retry joins, hedge wrappers,
// the caller's own context) still resolves to its shard —
// degraded readers depend on this to map remote failures onto
// Page.MissingShards instead of failing the whole query.
func ShardOfError(err error) (int, bool) {
	var se *ShardError
	if errors.As(err, &se) {
		return se.Shard, true
	}
	return -1, false
}

// UnavailableShard reports whether err means "this whole shard is dark"
// — a *ShardError wrapping ErrShardUnavailable anywhere in the chain,
// however many transport or retry layers wrapped it — and, when it
// does, which shard. It is the one predicate degraded readers should
// use: checking the sentinel with errors.Is alone loses the shard
// index, and type-asserting the head of the chain misses wrapped
// errors entirely.
func UnavailableShard(err error) (int, bool) {
	if !errors.Is(err, ErrShardUnavailable) {
		return -1, false
	}
	return ShardOfError(err)
}

// shard is one partition of a collection, each document kept as its
// jsondoc.Encode bytes. A stored slice is never written (a write swaps in
// a new one), so readers may copy or decode it after releasing the lock,
// and a document decoded from it may alias its strings.
type shard struct {
	mu    sync.RWMutex
	docs  map[string][]byte
	bytes int // sum of the stored encodings' lengths
}

// lockForWrite returns the shard holding id, write-locked.
func (c *Collection) lockForWrite(id string) *shard {
	sh := c.shards[shardOf(id, len(c.shards))]
	sh.mu.Lock()
	return sh
}

// ---------------------------------------------------------------- reads

// NumShards returns the collection's shard count.
func (c *Collection) NumShards() int { return len(c.shards) }

// ShardOfID returns the shard index a document id hashes to.
func (c *Collection) ShardOfID(id string) int { return shardOf(id, len(c.shards)) }

// sortedIDs lists the shard's ids, sorted. The caller holds sh.mu.
func (sh *shard) sortedIDs() []string {
	ids := make([]string, 0, len(sh.docs))
	for id := range sh.docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ShardIDsContext returns one shard's document ids (sorted), cloning
// nothing — Scan lists a collection with it, as do callers that only
// need ids (the search engine's id scan, candidate feeds).
func (c *Collection) ShardIDsContext(ctx context.Context, si int) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh := c.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.sortedIDs(), nil
}

// AllShardsServing reports true: an in-process shard is never dark.
func (c *Collection) AllShardsServing() bool { return true }
