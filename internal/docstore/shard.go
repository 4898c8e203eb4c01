package docstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"covidkg/internal/breaker"
	"covidkg/internal/jsondoc"
)

// Errors surfaced by a dark shard.
var (
	// ErrShardUnavailable reports a read whose shard is dark: its
	// failpoint is down or its breaker is open. Readers that can degrade
	// (search scatter-gather) catch it and return partial results
	// instead of failing the whole query.
	ErrShardUnavailable = errors.New("docstore: shard unavailable")
	// ErrNoQuorum reports a write its shard could not accept because the
	// shard is dark. The write is applied nowhere, so a rejected write
	// never resurrects once the shard recovers.
	ErrNoQuorum = errors.New("docstore: write quorum not reached")
)

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
// shardnet's wire-error reconstruction) still resolves to its shard —
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

// ShardTarget names one shard for the failpoint registry — chaos
// harnesses use the same names to inject faults
// (e.g. Set(ShardTarget(2), Rule{Down: true}) darkens shard 2).
func ShardTarget(si int) string { return "shard" + strconv.Itoa(si) }

// shard is one partition of a collection, each document kept as its
// jsondoc.Encode bytes. A stored slice is never written (a write swaps in
// a new one), so readers may copy or decode it after releasing the lock,
// and a document decoded from it may alias its strings.
type shard struct {
	mu    sync.RWMutex
	docs  map[string][]byte
	bytes int // sum of the stored encodings' lengths
}

// gate admits one access to shard si, which is one failure domain for
// every collection: the shard's breaker must admit the call and its
// failpoint must pass. Without a failpoint registry nothing can fail
// and the breaker can never open, so the check is skipped.
func (s *Store) gate(si int) error {
	if s.fp == nil {
		return nil
	}
	b := s.brk[si]
	if !b.Allow() {
		return breaker.ErrOpen
	}
	if err := s.fp.Check(s.targets[si]); err != nil {
		b.Failure()
		return err
	}
	b.Success()
	return nil
}

// readGate is gate for a read: a refusal is a ShardError wrapping
// ErrShardUnavailable.
func (s *Store) readGate(si int) error {
	if err := s.gate(si); err != nil {
		return &ShardError{Shard: si, Err: fmt.Errorf("%w: %v", ErrShardUnavailable, err)}
	}
	return nil
}

// lockForWrite admits a write to the shard holding id and returns that
// shard write-locked. A refusal is a ShardError wrapping ErrNoQuorum,
// returned before anything is applied.
func (c *Collection) lockForWrite(id string) (*shard, error) {
	si := shardOf(id, len(c.shards))
	if err := c.store.gate(si); err != nil {
		return nil, &ShardError{Shard: si, Err: fmt.Errorf("%w: %v", ErrNoQuorum, err)}
	}
	sh := c.shards[si]
	sh.mu.Lock()
	return sh, nil
}

// ---------------------------------------------------------------- reads

// NumShards returns the collection's shard count.
func (c *Collection) NumShards() int { return len(c.shards) }

// ShardOfID returns the shard index a document id hashes to — degraded
// readers use it to group candidate ids by failure domain.
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

// SnapshotShardContext returns a consistent snapshot of one shard, ids
// sorted, each document freshly decoded. A dark shard fails with a
// ShardError wrapping ErrShardUnavailable.
func (c *Collection) SnapshotShardContext(ctx context.Context, si int) ([]jsondoc.Doc, error) {
	encs, err := c.SnapshotShardBinary(ctx, si)
	if err != nil {
		return nil, err
	}
	docs := make([]jsondoc.Doc, len(encs))
	for i, enc := range encs {
		if i%ScanCheckInterval == ScanCheckInterval-1 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if docs[i], err = jsondoc.FromBinaryAliased(enc); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// SnapshotShardBinary is SnapshotShardContext returning the stored
// encodings themselves, which the caller must not write.
func (c *Collection) SnapshotShardBinary(ctx context.Context, si int) ([][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.store.readGate(si); err != nil {
		return nil, err
	}
	sh := c.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ids := sh.sortedIDs()
	encs := make([][]byte, len(ids))
	for i, id := range ids {
		encs[i] = sh.docs[id]
	}
	return encs, nil
}

// ShardIDsContext returns one shard's document ids (sorted), cloning
// nothing — callers that only need ids (the search engine's id scan,
// candidate feeds) use it instead of materializing the shard. A dark
// shard fails with a ShardError wrapping ErrShardUnavailable.
func (c *Collection) ShardIDsContext(ctx context.Context, si int) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.store.readGate(si); err != nil {
		return nil, err
	}
	sh := c.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.sortedIDs(), nil
}

// AllShardsServing reports whether every shard's breaker admits
// traffic — the cheap upfront gate the index-native scoring path uses:
// when it holds, page materialization will (almost certainly) succeed,
// so index-only ranking cannot silently drop a dark shard's documents
// from Total.
func (c *Collection) AllShardsServing() bool {
	for _, b := range c.store.brk {
		if b.State() == breaker.Open {
			return false
		}
	}
	return true
}

// --------------------------------------------------------------- health

// ShardHealth is one shard's serving state.
type ShardHealth struct {
	Shard int    `json:"shard"`
	Ready bool   `json:"ready"` // breaker not open
	State string `json:"state"` // breaker state: closed, open, half-open
}

// Health reports the per-shard breaker states backing the readiness
// endpoint: a shard is ready unless its breaker is open.
func (s *Store) Health() []ShardHealth {
	out := make([]ShardHealth, s.numShards)
	for si, b := range s.brk {
		st := b.State()
		out[si] = ShardHealth{Shard: si, Ready: st != breaker.Open, State: st.String()}
	}
	return out
}
