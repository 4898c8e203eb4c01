package shardnet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"covidkg/internal/breaker"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
	"covidkg/internal/retry"
)

// Config tunes the coordinator side of the shard tier.
type Config struct {
	// Collection is the logical collection name (default "publications").
	Collection string
	// DialTimeout caps each TCP dial (default 2s).
	DialTimeout time.Duration
	// CallTimeout caps a call when the caller's context carries no
	// deadline (default 10s); with a deadline, that deadline wins and is
	// propagated to the shard server in the frame.
	CallTimeout time.Duration
	// HedgeDelay fixes the read-hedge budget; 0 selects the adaptive
	// 2×p95 budget.
	HedgeDelay time.Duration
	// Breaker configures the per-shard-connection circuit breakers.
	Breaker breaker.Config
	// ReadRetry / WriteRetry shape the transport retry schedules. Writes
	// retry with idempotency keys so a retry racing a crash cannot
	// double-apply; zero values take the defaults below.
	ReadRetry  retry.Config
	WriteRetry retry.Config
	// MuxConns bounds the multiplexed connections per shard (default 2)
	// — pipelining carries the concurrency, not connection count.
	MuxConns int
	// Metrics receives coordinator counters; nil allocates privately.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Collection == "" {
		c.Collection = "publications"
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.ReadRetry.Attempts == 0 {
		// Reads fail fast: a dark shard should degrade into a partial
		// page quickly, not stall the request on long backoff.
		c.ReadRetry = retry.Config{Attempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Jitter: 0.2}
	}
	if c.WriteRetry.Attempts == 0 {
		c.WriteRetry = retry.Config{Attempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond, Jitter: 0.2}
	}
	return c
}

// transportFailure reports whether err is a transport-level outcome
// (never reached the server, or reply lost) rather than an error the
// server itself returned.
func transportFailure(err error) bool {
	return errors.Is(err, ErrNotSent) || errors.Is(err, ErrIndeterminate)
}

// Coordinator scatter-gathers the document-collection surface over N
// remote shard server processes. It implements docstore.Docs, so the
// search engine, core.System, and the API handlers run unmodified over
// it; the in-process *Collection and the networked tier are
// interchangeable behind that interface.
//
// Placement is the versioned consistent-hash ShardMap; per-shard
// clients carry circuit breakers, hedged reads, deadline propagation,
// and idempotent write retries. A dark shard degrades exactly like the
// in-process tier: shard-scoped reads fail with a *docstore.ShardError
// wrapping ErrShardUnavailable, which the search layer turns into a
// Partial page naming the missing shard.
type Coordinator struct {
	cfg Config
	met *metrics.Registry

	// mu guards the shard map and client table (swapped at migration
	// cutover).
	mu      sync.RWMutex
	smap    *ShardMap
	clients []*shardClient

	// gates pause writes to one shard during a migration's delta+cutover
	// window: writers hold the shard's gate in read mode for the length
	// of one attempt, the migrator holds it in write mode while it
	// drains, delta-syncs, and swaps the client. Readers never take the
	// gate — reads stay live through the whole migration.
	gates []*sync.RWMutex

	idemSeq    atomic.Uint64
	idemPrefix string
}

// Dial builds a coordinator over one address per shard. Shards need
// not be reachable yet — breakers and retries handle late-starting or
// restarting processes; use Ping to fail fast when the caller wants
// proof of liveness.
func Dial(cfg Config, addrs []string) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("shardnet: at least one shard address required")
	}
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:        cfg,
		met:        cfg.Metrics,
		smap:       NewShardMap(addrs),
		idemPrefix: randomToken(),
	}
	co.clients = make([]*shardClient, len(addrs))
	co.gates = make([]*sync.RWMutex, len(addrs))
	for i, sa := range co.smap.Shards {
		co.clients[i] = co.newClient(i, sa.Name, sa.Addr)
		co.gates[i] = &sync.RWMutex{}
	}
	return co, nil
}

func (co *Coordinator) newClient(si int, name, addr string) *shardClient {
	return newShardClient(si, name, addr, clientOpts{
		dialTimeout: co.cfg.DialTimeout,
		callTimeout: co.cfg.CallTimeout,
		hedgeDelay:  co.cfg.HedgeDelay,
		muxConns:    co.cfg.MuxConns,
		brk:         co.cfg.Breaker,
		met:         co.met,
	})
}

// randomToken makes idempotency keys unique across coordinator
// restarts, so a new coordinator can never replay a previous one's
// recorded outcomes.
func randomToken() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

func (co *Coordinator) nextIdemKey() string {
	return fmt.Sprintf("%s-%d", co.idemPrefix, co.idemSeq.Add(1))
}

// Close releases every pooled connection.
func (co *Coordinator) Close() {
	co.mu.RLock()
	clients := append([]*shardClient(nil), co.clients...)
	co.mu.RUnlock()
	for _, c := range clients {
		c.close()
	}
}

// clientFor reads the current client + map version for a shard.
func (co *Coordinator) clientFor(si int) (*shardClient, uint64) {
	co.mu.RLock()
	defer co.mu.RUnlock()
	return co.clients[si], co.smap.Version
}

// MapVersion returns the current shard-map version.
func (co *Coordinator) MapVersion() uint64 {
	co.mu.RLock()
	defer co.mu.RUnlock()
	return co.smap.Version
}

// ShardMapSnapshot returns a copy of the placement table (no ring).
func (co *Coordinator) ShardMapSnapshot() ShardMap {
	co.mu.RLock()
	defer co.mu.RUnlock()
	out := ShardMap{Version: co.smap.Version, Shards: make([]ShardAddr, len(co.smap.Shards))}
	copy(out.Shards, co.smap.Shards)
	return out
}

// darkShardErr folds an exhausted transport failure into the error
// shape upper layers already handle: a *docstore.ShardError wrapping
// both ErrShardUnavailable (so readers degrade into the
// Partial/MissingShards path and the API maps to 503) and the
// transport classification (so audits can still distinguish
// not-sent from indeterminate). Server-returned errors pass through
// untouched — they were already decoded into the right chain.
func (co *Coordinator) darkShardErr(si int, err error) error {
	if !transportFailure(err) {
		return err
	}
	return &docstore.ShardError{Shard: si, Err: fmt.Errorf("%w: %w", docstore.ErrShardUnavailable, err)}
}

// ------------------------------------------------------------- writes

// writeCall runs one write op with bounded retries under the shard's
// migration gate, re-resolving the client and map version on every
// attempt (a retry after cutover lands on the new owner). If ANY
// attempt ended indeterminate, a final failure is classified
// indeterminate even when the last attempt definitively did not send —
// an earlier frame may have been applied, and claiming otherwise would
// corrupt the lost/ghost audit.
func (co *Coordinator) writeCall(ctx context.Context, id string, build func(si int, mapv uint64) *request) (*response, error) {
	sawIndeterminate := false
	var resp *response
	retryCfg := co.cfg.WriteRetry
	retryCfg.Retryable = func(err error) bool {
		return transportFailure(err) || errors.Is(err, ErrStaleMap) || errors.Is(err, docstore.ErrNoQuorum)
	}
	err := retry.Do(ctx, retryCfg, func() error {
		co.mu.RLock()
		si := co.smap.ShardOf(id)
		gate := co.gates[si]
		co.mu.RUnlock()

		gate.RLock()
		cl, mapv := co.clientFor(si)
		r, err := cl.call(ctx, build(si, mapv))
		gate.RUnlock()
		if err != nil {
			if errors.Is(err, ErrIndeterminate) {
				sawIndeterminate = true
			}
			return err
		}
		resp = r
		return nil
	})
	if err != nil {
		if sawIndeterminate && !errors.Is(err, ErrIndeterminate) {
			err = fmt.Errorf("%w: an earlier attempt may have been applied: %v", ErrIndeterminate, err)
		}
		co.mu.RLock()
		si := co.smap.ShardOf(id)
		co.mu.RUnlock()
		return nil, co.darkShardErr(si, err)
	}
	return resp, nil
}

// Insert stores one document, assigning an id when absent (the
// coordinator must own id assignment: placement hashes the id, so the
// id has to exist before the request can be routed).
func (co *Coordinator) Insert(d jsondoc.Doc) (string, error) {
	doc := jsondoc.NormalizeDoc(d)
	id, _ := doc[docstore.IDField].(string)
	if id == "" {
		id = fmt.Sprintf("doc-%s-%d", co.idemPrefix, co.idemSeq.Add(1))
		doc[docstore.IDField] = id
	}
	idem := co.nextIdemKey()
	resp, err := co.writeCall(context.Background(), id, func(si int, mapv uint64) *request {
		return &request{Op: opInsert, Shard: si, MapVersion: mapv, IdemKey: idem, Doc: doc}
	})
	if err != nil {
		return "", err
	}
	co.met.Counter("shardnet.coord.inserts").Inc()
	return resp.ID, nil
}

// Delete removes one document with the same retry/idempotency
// machinery as Insert.
func (co *Coordinator) Delete(id string) error {
	idem := co.nextIdemKey()
	_, err := co.writeCall(context.Background(), id, func(si int, mapv uint64) *request {
		return &request{Op: opDelete, Shard: si, MapVersion: mapv, IdemKey: idem, ID: id}
	})
	return err
}

// -------------------------------------------------------------- reads

// readCall runs one read op against a shard with hedging plus a short
// retry, folding exhausted transport failures into the dark-shard
// error shape.
func (co *Coordinator) readCall(ctx context.Context, si int, build func(mapv uint64) *request) (*response, error) {
	var resp *response
	retryCfg := co.cfg.ReadRetry
	retryCfg.Retryable = transportFailure
	err := retry.Do(ctx, retryCfg, func() error {
		cl, mapv := co.clientFor(si)
		r, err := cl.hedgedCall(ctx, build(mapv))
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	if err != nil {
		return nil, co.darkShardErr(si, err)
	}
	return resp, nil
}

// Name returns the collection name.
func (co *Coordinator) Name() string { return co.cfg.Collection }

// Get fetches one document from its shard (hedged read).
func (co *Coordinator) Get(id string) (jsondoc.Doc, error) {
	co.mu.RLock()
	si := co.smap.ShardOf(id)
	co.mu.RUnlock()
	resp, err := co.readCall(context.Background(), si, func(mapv uint64) *request {
		return &request{Op: opGet, Shard: si, MapVersion: mapv, ID: id}
	})
	if err != nil {
		return nil, err
	}
	return resp.Doc, nil
}

// GetMany fetches a batch of documents, coalescing the batch into one
// get_many frame per shard issued concurrently — a page of remote
// fetches costs one round trip per shard instead of one per id. The
// result aligns 1:1 with ids (nil for absent ids and ids on dark
// shards); missing lists the dark shard indices, sorted.
func (co *Coordinator) GetMany(ctx context.Context, ids []string) ([]jsondoc.Doc, []int, error) {
	docs := make([]jsondoc.Doc, len(ids))
	if len(ids) == 0 {
		return docs, nil, nil
	}
	// Group ids by owning shard, remembering each id's result slots
	// (an id may appear more than once in the batch).
	co.mu.RLock()
	perShard := make(map[int][]string)
	for _, id := range ids {
		si := co.smap.ShardOf(id)
		perShard[si] = append(perShard[si], id)
	}
	co.mu.RUnlock()
	slots := make(map[string][]int, len(ids))
	for i, id := range ids {
		slots[id] = append(slots[id], i)
	}

	var (
		mu      sync.Mutex
		missing []int
		wg      sync.WaitGroup
	)
	for si, shardIDs := range perShard {
		wg.Add(1)
		go func(si int, shardIDs []string) {
			defer wg.Done()
			resp, err := co.readCall(ctx, si, func(mapv uint64) *request {
				return &request{Op: opGetMany, Shard: si, MapVersion: mapv, IDs: shardIDs}
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				missing = append(missing, si)
				return
			}
			for _, d := range resp.Docs {
				id, _ := d[docstore.IDField].(string)
				for _, i := range slots[id] {
					docs[i] = d
				}
			}
		}(si, shardIDs)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sort.Ints(missing)
	return docs, missing, nil
}

// Count sums live shard counts scattered concurrently; dark shards
// contribute zero (Count is introspective, mirroring the in-process
// tier where a fully dark shard's documents are likewise invisible
// until it recovers).
func (co *Coordinator) Count() int {
	counts := make([]int, co.NumShards())
	var wg sync.WaitGroup
	for si := range counts {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			resp, err := co.readCall(context.Background(), si, func(mapv uint64) *request {
				return &request{Op: opCount, Shard: si, MapVersion: mapv}
			})
			if err == nil {
				counts[si] = resp.N
			}
		}(si)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// IDs merges every live shard's sorted id list, scattered
// concurrently; dark shards are skipped (same best-effort contract as
// Count).
func (co *Coordinator) IDs() []string {
	perShard := make([][]string, co.NumShards())
	var wg sync.WaitGroup
	for si := range perShard {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			ids, err := co.ShardIDsContext(context.Background(), si)
			if err == nil {
				perShard[si] = ids
			}
		}(si)
	}
	wg.Wait()
	var all []string
	for _, ids := range perShard {
		all = append(all, ids...)
	}
	sort.Strings(all)
	return all
}

// Scan streams every document in deterministic (shard, id) order,
// ending early at a dark shard — use ScanContext to fail loudly.
func (co *Coordinator) Scan(fn func(jsondoc.Doc) bool) {
	_ = co.ScanContext(context.Background(), fn)
}

// ScanContext streams a snapshot of every shard in order, failing
// loudly (dark-shard error) rather than silently dropping a partition.
// While one shard's snapshot is being consumed, the next shard's is
// already being fetched, so the scan's wall clock overlaps network and
// iteration instead of summing them.
func (co *Coordinator) ScanContext(ctx context.Context, fn func(jsondoc.Doc) bool) error {
	type snap struct {
		docs []jsondoc.Doc
		err  error
	}
	n := co.NumShards()
	fetch := func(si int) chan snap {
		ch := make(chan snap, 1)
		go func() {
			docs, err := co.SnapshotShardContext(ctx, si)
			ch <- snap{docs, err}
		}()
		return ch
	}
	next := fetch(0)
	for si := 0; si < n; si++ {
		cur := <-next
		if cur.err != nil {
			return cur.err
		}
		if si+1 < n {
			next = fetch(si + 1)
		}
		for _, d := range cur.docs {
			if err := ctx.Err(); err != nil {
				return err
			}
			if !fn(d) {
				return nil
			}
		}
	}
	return nil
}

// NumShards returns the shard count.
func (co *Coordinator) NumShards() int {
	co.mu.RLock()
	defer co.mu.RUnlock()
	return co.smap.NumShards()
}

// ShardOfID places an id on the consistent-hash ring.
func (co *Coordinator) ShardOfID(id string) int {
	co.mu.RLock()
	defer co.mu.RUnlock()
	return co.smap.ShardOf(id)
}

// ShardIDsContext lists one shard's ids (sorted server-side).
func (co *Coordinator) ShardIDsContext(ctx context.Context, si int) ([]string, error) {
	resp, err := co.readCall(ctx, si, func(mapv uint64) *request {
		return &request{Op: opIDs, Shard: si, MapVersion: mapv}
	})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// SnapshotShardContext fetches one shard's full snapshot, ids sorted.
func (co *Coordinator) SnapshotShardContext(ctx context.Context, si int) ([]jsondoc.Doc, error) {
	resp, err := co.readCall(ctx, si, func(mapv uint64) *request {
		return &request{Op: opSnapshot, Shard: si, MapVersion: mapv}
	})
	if err != nil {
		return nil, err
	}
	return resp.Docs, nil
}

// AllShardsServing reports whether every shard connection's breaker
// currently admits traffic — the cheap gate the index-native scoring
// path checks before trusting a full scatter.
func (co *Coordinator) AllShardsServing() bool {
	co.mu.RLock()
	defer co.mu.RUnlock()
	for _, cl := range co.clients {
		if cl.brk.State() == breaker.Open {
			return false
		}
	}
	return true
}

// Docs conformance: the coordinator is a drop-in collection.
var _ docstore.Docs = (*Coordinator)(nil)

// ------------------------------------------------------- health/ops

// ConnHealth is one shard connection's state as reported by /readyz:
// "connected" (reachable), "breaker-open" (the breaker has the shard
// out of rotation), or "unreachable" (probe failed without tripping
// the breaker open yet).
type ConnHealth struct {
	Shard    int    `json:"shard"`
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	State    string `json:"state"`
	Docs     int    `json:"docs"`
	WALBytes int64  `json:"wal_bytes,omitempty"`
}

// Ready reports whether every shard is "connected".
func (h ConnHealth) Ready() bool { return h.State == "connected" }

// Health probes every shard (concurrently, bounded by ctx) and reports
// per-connection state plus the current shard-map version.
func (co *Coordinator) Health(ctx context.Context) ([]ConnHealth, uint64) {
	co.mu.RLock()
	clients := append([]*shardClient(nil), co.clients...)
	shards := append([]ShardAddr(nil), co.smap.Shards...)
	version := co.smap.Version
	co.mu.RUnlock()

	out := make([]ConnHealth, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			h := ConnHealth{Shard: si, Name: shards[si].Name, Addr: shards[si].Addr}
			cl := clients[si]
			if cl.brk.State() == breaker.Open {
				h.State = "breaker-open"
				out[si] = h
				return
			}
			pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			resp, err := cl.call(pctx, &request{Op: opHealth, Shard: si})
			if err != nil {
				if cl.brk.State() == breaker.Open {
					h.State = "breaker-open"
				} else {
					h.State = "unreachable"
				}
				out[si] = h
				return
			}
			h.Docs = resp.N
			h.WALBytes = resp.WALBytes
			h.State = "connected"
			out[si] = h
		}(i)
	}
	wg.Wait()
	return out, version
}

// Ping dials every shard once, returning an error naming the
// unreachable ones — the startup fail-fast check.
func (co *Coordinator) Ping(ctx context.Context) error {
	var dark []string
	for si := 0; si < co.NumShards(); si++ {
		cl, _ := co.clientFor(si)
		if _, err := cl.call(ctx, &request{Op: opPing, Shard: si}); err != nil {
			dark = append(dark, fmt.Sprintf("%s(%s)", cl.name, cl.addr))
		}
	}
	if len(dark) > 0 {
		return fmt.Errorf("shardnet: %d/%d shards unreachable: %v", len(dark), co.NumShards(), dark)
	}
	return nil
}
