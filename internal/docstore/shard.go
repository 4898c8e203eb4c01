package docstore

import (
	"context"
	"errors"
	"fmt"
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

// A Collection is one shard: the shard-scoped reads below see all of it.

// NumShards returns 1.
func (c *Collection) NumShards() int { return 1 }

// ShardOfID returns 0, the one shard.
func (c *Collection) ShardOfID(string) int { return 0 }

// ShardIDsContext returns the collection's document ids, sorted,
// whatever si — Scan lists a collection with it, as do callers that
// only need ids (the search engine's id scan, candidate feeds).
func (c *Collection) ShardIDsContext(ctx context.Context, _ int) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.IDs(), nil
}

// AllShardsServing reports true: a collection is never dark.
func (c *Collection) AllShardsServing() bool { return true }
