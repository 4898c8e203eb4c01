package docstore

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"covidkg/internal/jsondoc"
)

// Errors surfaced by the replica layer.
var (
	// ErrShardUnavailable reports a read that found no healthy,
	// up-to-date replica for the shard — the shard is dark. Readers
	// that can degrade (search scatter-gather) catch it and return
	// partial results instead of failing the whole query.
	ErrShardUnavailable = errors.New("docstore: shard unavailable")
	// ErrNoQuorum reports a write that could not reach a majority of
	// the shard's replicas. The write is not applied anywhere, so a
	// failed write never resurrects during resync.
	ErrNoQuorum = errors.New("docstore: write quorum not reached")

	// errReplicaStale and errReplicaOpen are per-replica attempt
	// failures folded into ShardError when every replica is exhausted.
	errReplicaStale = errors.New("docstore: replica stale")
	errReplicaOpen  = errors.New("docstore: replica breaker open")
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

// ReplicaTarget names one replica for the failpoint registry — chaos
// harnesses use the same names to inject faults
// (e.g. Set("shard2/*", Rule{Down: true}) darkens a whole shard).
func ReplicaTarget(shard, replica int) string {
	return fmt.Sprintf("shard%d/replica%d", shard, replica)
}

// replicaData is one copy of a shard's documents. Stored documents are
// never mutated in place (updates replace the object), so replicas
// share document pointers and diverge only in map contents.
type replicaData struct {
	docs  map[string]jsondoc.Doc
	bytes int
	// version is the group version of the last write this replica
	// applied. A replica behind the group version is stale: it missed a
	// quorum write while dark, takes no reads or writes, and rejoins
	// only after resync makes it identical again.
	version uint64
}

// shardGroup is one shard as a failure domain: a replica group with a
// quorum-committed version. The group lock covers every replica, so
// writes are atomic across the group and readers see a consistent
// replica set.
type shardGroup struct {
	mu       sync.RWMutex
	version  uint64
	replicas []*replicaData
}

func newShardGroup(n int) *shardGroup {
	sg := &shardGroup{replicas: make([]*replicaData, n)}
	for i := range sg.replicas {
		sg.replicas[i] = &replicaData{docs: map[string]jsondoc.Doc{}}
	}
	return sg
}

// freshest returns a replica carrying the group version. The quorum
// invariant guarantees one exists; used by introspective paths (stats,
// checksums, resync sources) that bypass breakers and failpoints.
func (sg *shardGroup) freshest() *replicaData {
	for _, r := range sg.replicas {
		if r.version == sg.version {
			return r
		}
	}
	return sg.replicas[0]
}

// writableReplicas returns, under the group write lock, the replicas
// that will apply the next write: up to date, breaker-admitted, and
// passing their failpoint check. Fewer than the quorum fails the write
// before anything is applied — a sub-quorum write mutates no replica,
// so it can never reappear after recovery.
func (s *Store) writableReplicas(sg *shardGroup, si int) ([]*replicaData, error) {
	live := make([]*replicaData, 0, len(sg.replicas))
	for ri, r := range sg.replicas {
		if r.version != sg.version {
			continue // stale replica: no writes until resync
		}
		b := s.brk[si][ri]
		if !b.Allow() {
			continue
		}
		if err := s.fp.Check(ReplicaTarget(si, ri)); err != nil {
			b.Failure()
			continue
		}
		b.Success()
		live = append(live, r)
	}
	if len(live) < s.quorum {
		return nil, &ShardError{Shard: si, Err: fmt.Errorf("%w: %d of %d replicas writable, quorum %d",
			ErrNoQuorum, len(live), len(sg.replicas), s.quorum)}
	}
	return live, nil
}

// readReplica finds a healthy, up-to-date replica under the group read
// lock, rotating the starting replica across calls so read load spreads
// over the group. Returns ErrShardUnavailable (wrapped in ShardError)
// when every replica is stale, tripped, or faulted.
func (c *Collection) readReplica(sg *shardGroup, si int) (*replicaData, error) {
	s := c.store
	n := len(sg.replicas)
	start := int(s.readSeq.Add(1)) % n
	var lastErr error
	for k := 0; k < n; k++ {
		ri := (start + k) % n
		r := sg.replicas[ri]
		if r.version != sg.version {
			lastErr = errReplicaStale
			continue
		}
		b := s.brk[si][ri]
		if !b.Allow() {
			lastErr = errReplicaOpen
			continue
		}
		if err := s.fp.Check(ReplicaTarget(si, ri)); err != nil {
			b.Failure()
			lastErr = err
			continue
		}
		b.Success()
		return r, nil
	}
	return nil, &ShardError{Shard: si, Err: fmt.Errorf("%w: %v", ErrShardUnavailable, lastErr)}
}

// ---------------------------------------------------------------- reads

// NumShards returns the collection's shard count.
func (c *Collection) NumShards() int { return len(c.shards) }

// ShardOfID returns the shard index a document id hashes to — degraded
// readers use it to group candidate ids by failure domain.
func (c *Collection) ShardOfID(id string) int { return shardOf(id, len(c.shards)) }

// snapshotReplica clones every document of one specific replica. The
// failpoint check (which models the replica's network/disk latency)
// runs before the lock is taken, so a slow replica never stalls the
// shard's writers; the replica must still be up to date once the lock
// is held.
func (c *Collection) snapshotReplica(ctx context.Context, si, ri int) ([]jsondoc.Doc, error) {
	s := c.store
	sg := c.shards[si]
	b := s.brk[si][ri]
	if !b.Allow() {
		return nil, errReplicaOpen
	}
	start := time.Now()
	if err := s.fp.Check(ReplicaTarget(si, ri)); err != nil {
		b.Failure()
		return nil, err
	}
	b.Success()

	sg.mu.RLock()
	r := sg.replicas[ri]
	if r.version != sg.version {
		sg.mu.RUnlock()
		return nil, errReplicaStale
	}
	ids := make([]string, 0, len(r.docs))
	for id := range r.docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	docs := make([]jsondoc.Doc, 0, len(ids))
	for i, id := range ids {
		if i%ScanCheckInterval == ScanCheckInterval-1 && ctx.Err() != nil {
			sg.mu.RUnlock()
			return nil, ctx.Err()
		}
		docs = append(docs, r.docs[id].Clone())
	}
	sg.mu.RUnlock()
	s.met.Histogram("docstore.replica_read").Observe(time.Since(start))
	return docs, nil
}

// replicaIDs lists one specific replica's document ids (sorted) without
// cloning any document — the id-only counterpart of snapshotReplica,
// used by scans that only need ids downstream. Latency is recorded in
// its own histogram so fast id scans don't drag down the full-snapshot
// p95 the hedge budget is calibrated from.
func (c *Collection) replicaIDs(ctx context.Context, si, ri int) ([]string, error) {
	s := c.store
	sg := c.shards[si]
	b := s.brk[si][ri]
	if !b.Allow() {
		return nil, errReplicaOpen
	}
	start := time.Now()
	if err := s.fp.Check(ReplicaTarget(si, ri)); err != nil {
		b.Failure()
		return nil, err
	}
	b.Success()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sg.mu.RLock()
	r := sg.replicas[ri]
	if r.version != sg.version {
		sg.mu.RUnlock()
		return nil, errReplicaStale
	}
	ids := make([]string, 0, len(r.docs))
	for id := range r.docs {
		ids = append(ids, id)
	}
	sg.mu.RUnlock()
	sort.Strings(ids)
	s.met.Histogram("docstore.replica_idscan").Observe(time.Since(start))
	return ids, nil
}

// hedgeResult carries one replica read attempt.
type hedgeResult[T any] struct {
	val T
	err error
}

// hedgedShardRead races one replica-read function across a shard's
// replica group: if the first replica has not answered within the
// store's hedge budget (a multiple of the observed p95 replica-read
// latency, or the WithHedgeDelay override), the same read is raced on
// the next replica and the first success wins — a slow replica costs
// one budget, not its full injected latency. A failed attempt
// immediately tries the next replica. When every replica fails, the
// error is a ShardError wrapping ErrShardUnavailable.
func hedgedShardRead[T any](ctx context.Context, c *Collection, si int, read func(ctx context.Context, si, ri int) (T, error)) (T, error) {
	var zero T
	s := c.store
	n := s.numReplicas
	start := int(s.readSeq.Add(1)) % n
	order := make([]int, n)
	for k := range order {
		order[k] = (start + k) % n
	}

	results := make(chan hedgeResult[T], n)
	attempt := func(ri int) {
		v, err := read(ctx, si, ri)
		results <- hedgeResult[T]{v, err}
	}

	tried, pending := 1, 1
	go attempt(order[0])
	hedge := time.NewTimer(s.currentHedgeDelay())
	defer hedge.Stop()

	var lastErr error
	for {
		select {
		case res := <-results:
			pending--
			if res.err == nil {
				return res.val, nil
			}
			lastErr = res.err
			if errors.Is(res.err, context.Canceled) || errors.Is(res.err, context.DeadlineExceeded) {
				return zero, res.err
			}
			// a failed attempt immediately tries the next replica —
			// no point waiting out the hedge budget on a known failure
			if tried < n {
				pending++
				go attempt(order[tried])
				tried++
			} else if pending == 0 {
				return zero, &ShardError{Shard: si, Err: fmt.Errorf("%w: %v", ErrShardUnavailable, lastErr)}
			}
		case <-hedge.C:
			if tried < n {
				s.met.Counter("hedged_requests").Inc()
				pending++
				go attempt(order[tried])
				tried++
				hedge.Reset(s.currentHedgeDelay())
			}
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// SnapshotShardContext returns a consistent deep-copied snapshot of one
// shard (ids sorted), served by any healthy up-to-date replica via a
// hedged read. When every replica fails, the error is a ShardError
// wrapping ErrShardUnavailable.
func (c *Collection) SnapshotShardContext(ctx context.Context, si int) ([]jsondoc.Doc, error) {
	return hedgedShardRead(ctx, c, si, c.snapshotReplica)
}

// ShardIDsContext returns one shard's document ids (sorted), served by
// any healthy up-to-date replica via a hedged read, cloning nothing —
// callers that only need ids (the search engine's id scan, candidate
// feeds) use it instead of materializing the shard. When every replica
// fails, the error is a ShardError wrapping ErrShardUnavailable.
func (c *Collection) ShardIDsContext(ctx context.Context, si int) ([]string, error) {
	return hedgedShardRead(ctx, c, si, c.replicaIDs)
}

// AllShardsServing reports whether every shard currently has at least
// one up-to-date replica whose breaker admits traffic — the cheap
// upfront gate the index-native scoring path uses: when it holds, page
// materialization will (almost certainly) succeed, so index-only
// ranking cannot silently drop a dark shard's documents from Total.
func (c *Collection) AllShardsServing() bool {
	s := c.store
	for si, sg := range c.shards {
		sg.mu.RLock()
		ok := false
		for ri, r := range sg.replicas {
			if r.version == sg.version && s.brk[si][ri].State().String() != "open" {
				ok = true
				break
			}
		}
		sg.mu.RUnlock()
		if !ok {
			return false
		}
	}
	return true
}

// defaultHedgeDelay applies until enough replica reads are observed to
// estimate a percentile budget.
const defaultHedgeDelay = 25 * time.Millisecond

// currentHedgeDelay is the latency budget before a shard read hedges
// onto another replica: twice the observed p95 replica-read latency,
// clamped to [1ms, 250ms], or the fixed WithHedgeDelay override.
func (s *Store) currentHedgeDelay() time.Duration {
	if s.hedgeDelay > 0 {
		return s.hedgeDelay
	}
	snap := s.met.Histogram("docstore.replica_read").Snapshot()
	if snap.Count < 16 {
		return defaultHedgeDelay
	}
	d := time.Duration(snap.P95Us * 2 * float64(time.Microsecond))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

// --------------------------------------------------------------- resync

// ResyncReport summarizes one resync pass over the whole store.
type ResyncReport struct {
	Collections int  `json:"collections"`
	Resynced    int  `json:"resynced"` // stale replicas repaired
	Skipped     int  `json:"skipped"`  // stale replicas still unreachable
	Identical   bool `json:"identical"`
	// Identical reports whether, after the pass, every replica of every
	// shard is CRC32-identical to its group — false while any replica
	// remains dark and stale.
}

// Resync repairs stale replicas across every collection: for each shard
// group, replicas that missed quorum writes while dark are rebuilt from
// an up-to-date peer, provided their failpoint says they are reachable
// again. The copy is verified byte-identical via the CRC32 of the
// replica's deterministic JSONL serialization — the same checksum the
// durability layer records in snapshot manifests. Breakers are not
// touched: the serving path's half-open probe discovers recovery on its
// own.
func (s *Store) Resync() ResyncReport {
	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	s.mu.RUnlock()

	report := ResyncReport{Collections: len(colls), Identical: true}
	for _, c := range colls {
		for si, sg := range c.shards {
			sg.mu.Lock()
			// fast path: no stale replica means every replica applied the
			// same quorum writes — identical by construction, no CRC work
			stale := 0
			for _, r := range sg.replicas {
				if r.version != sg.version {
					stale++
				}
			}
			if stale == 0 {
				sg.mu.Unlock()
				continue
			}
			src := sg.freshest()
			srcCRC := replicaCRC(src)
			for ri, r := range sg.replicas {
				if r.version == sg.version {
					if replicaCRC(r) != srcCRC {
						report.Identical = false
					}
					continue
				}
				if err := s.fp.Check(ReplicaTarget(si, ri)); err != nil {
					report.Skipped++
					report.Identical = false
					continue
				}
				fresh := make(map[string]jsondoc.Doc, len(src.docs))
				for id, d := range src.docs {
					fresh[id] = d
				}
				r.docs = fresh
				r.bytes = src.bytes
				r.version = sg.version
				if replicaCRC(r) != srcCRC {
					report.Identical = false
					continue
				}
				report.Resynced++
				s.met.Counter("replica_resyncs").Inc()
			}
			sg.mu.Unlock()
		}
	}
	return report
}

// StartAutoResync runs Resync every interval on a background goroutine
// until the returned stop function is called — the always-on repair
// loop a long-running server wires up at startup.
func (s *Store) StartAutoResync(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Resync()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}

// replicaCRC computes the CRC32 (IEEE — the polynomial the durable
// snapshot manifests use) of a replica's deterministic JSONL
// serialization: sorted ids, one document JSON per line. Equal CRCs
// mean byte-identical persisted forms.
func replicaCRC(r *replicaData) uint32 {
	ids := make([]string, 0, len(r.docs))
	for id := range r.docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var crc uint32
	for _, id := range ids {
		crc = crc32.Update(crc, crc32.IEEETable, r.docs[id].JSON())
		crc = crc32.Update(crc, crc32.IEEETable, []byte{'\n'})
	}
	return crc
}

// ShardCRC returns the CRC32 of one shard's freshest replica — the
// deterministic JSONL checksum (same algorithm as replicaCRC and the
// durable snapshot manifests). Shard servers expose it over the wire so
// a live migration can prove the destination holds byte-identical data
// before the shard map cuts over.
func (c *Collection) ShardCRC(si int) uint32 {
	sg := c.shards[si]
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	return replicaCRC(sg.freshest())
}

// ReplicaChecksums returns the CRC32 of every replica of one shard
// (introspective: bypasses breakers and failpoints). Tests and the
// chaos bench use it to prove resync leaves replicas byte-identical.
func (c *Collection) ReplicaChecksums(si int) []uint32 {
	sg := c.shards[si]
	sg.mu.RLock()
	defer sg.mu.RUnlock()
	out := make([]uint32, len(sg.replicas))
	for ri, r := range sg.replicas {
		out[ri] = replicaCRC(r)
	}
	return out
}

// ReplicasIdentical reports whether every replica of every shard of
// every collection carries identical bytes — the post-recovery
// invariant.
func (s *Store) ReplicasIdentical() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, c := range s.collections {
		for si := range c.shards {
			crcs := c.ReplicaChecksums(si)
			for _, crc := range crcs[1:] {
				if crc != crcs[0] {
					return false
				}
			}
		}
	}
	return true
}

// --------------------------------------------------------------- health

// ReplicaHealth is one replica's serving state.
type ReplicaHealth struct {
	Replica  int    `json:"replica"`
	State    string `json:"state"`      // breaker state: closed, open, half-open
	UpToDate bool   `json:"up_to_date"` // current in every collection
	BehindIn int    `json:"behind_in"`  // collections where it is stale
}

// ShardHealth is one shard's aggregated serving state.
type ShardHealth struct {
	Shard    int             `json:"shard"`
	Ready    bool            `json:"ready"` // ≥1 non-open, up-to-date replica
	Replicas []ReplicaHealth `json:"replicas"`
}

// Health reports the per-shard replica states backing the readiness
// endpoint: a shard is ready when at least one replica is both
// breaker-admissible and up to date in every collection.
func (s *Store) Health() []ShardHealth {
	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	s.mu.RUnlock()

	out := make([]ShardHealth, s.numShards)
	for si := range out {
		sh := ShardHealth{Shard: si, Replicas: make([]ReplicaHealth, s.numReplicas)}
		for ri := range sh.Replicas {
			rh := ReplicaHealth{Replica: ri, State: s.brk[si][ri].State().String(), UpToDate: true}
			for _, c := range colls {
				sg := c.shards[si]
				sg.mu.RLock()
				if sg.replicas[ri].version != sg.version {
					rh.BehindIn++
					rh.UpToDate = false
				}
				sg.mu.RUnlock()
			}
			if rh.State != "open" && rh.UpToDate {
				sh.Ready = true
			}
			sh.Replicas[ri] = rh
		}
		out[si] = sh
	}
	return out
}
