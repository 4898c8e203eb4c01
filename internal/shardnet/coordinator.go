package shardnet

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
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
// shard servers: covidkg-shard processes reached over TCP (Dial), or
// servers in this process reached over in-memory connections (Local).
// It implements docstore.Docs, so the search engine, core.System, and
// the API handlers run unmodified over it.
//
// Placement is the consistent-hash ShardMap, fixed at construction;
// per-shard clients carry circuit breakers, hedged reads, deadline
// propagation, and idempotent write retries. A dark shard's reads fail
// with a *docstore.ShardError wrapping ErrShardUnavailable, which the
// search layer turns into a Partial page naming the missing shard.
type Coordinator struct {
	cfg Config
	met *metrics.Registry

	// smap, clients and local are set once at construction and never
	// change, so no read or write path takes a lock to route.
	smap    *ShardMap
	clients []*shardClient
	local   []*Server // the servers Local started; Close closes them

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
	return newCoordinator(cfg, addrs, nil), nil
}

// Local starts n (at least 1) shard servers in this process, without
// WALs, and returns a coordinator over them. Each connection is an
// in-memory net.Pipe, so every frame still runs the codec, the mux, the
// breakers, hedging and idempotency keys. Shard i is named shardi and
// reports the address mem:shardi; Close also closes the servers.
func Local(cfg Config, n int) *Coordinator {
	servers := make([]*Server, max(n, 1))
	addrs := make([]string, len(servers))
	dials := make([]func(context.Context) (net.Conn, error), len(servers))
	for i := range servers {
		name := fmt.Sprintf("shard%d", i)
		// without a WAL, NewServer cannot fail
		srv, _ := NewServer(ServerConfig{Name: name, Collection: cfg.Collection})
		servers[i], addrs[i] = srv, "mem:"+name
		dials[i] = func(context.Context) (net.Conn, error) {
			client, server := net.Pipe()
			go srv.serveConn(server)
			return client, nil
		}
	}
	co := newCoordinator(cfg, addrs, dials)
	co.local = servers
	return co
}

// newCoordinator builds the coordinator over addrs; dials, when non-nil,
// holds each shard client's dial function (nil dials TCP).
func newCoordinator(cfg Config, addrs []string, dials []func(context.Context) (net.Conn, error)) *Coordinator {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:        cfg,
		met:        cfg.Metrics,
		smap:       NewShardMap(addrs),
		idemPrefix: randomToken(),
	}
	co.clients = make([]*shardClient, len(addrs))
	for i, sa := range co.smap.Shards {
		opts := clientOpts{
			dialTimeout: cfg.DialTimeout,
			callTimeout: cfg.CallTimeout,
			hedgeDelay:  cfg.HedgeDelay,
			muxConns:    cfg.MuxConns,
			brk:         cfg.Breaker,
			met:         cfg.Metrics,
		}
		if dials != nil {
			opts.dial = dials[i]
		}
		co.clients[i] = newShardClient(sa.Name, sa.Addr, opts)
	}
	return co
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

// Close releases every pooled connection and closes the servers Local
// started.
func (co *Coordinator) Close() {
	for _, c := range co.clients {
		c.close()
	}
	for _, srv := range co.local {
		srv.Close()
	}
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

// writeCall runs one write op against shard si with bounded
// retries; the request, and so its idempotency key, is the same on
// every attempt. If ANY attempt ended indeterminate, a final failure is
// classified indeterminate even when the last attempt definitively did
// not send — an earlier frame may have been applied, and claiming
// otherwise would corrupt the lost/ghost audit.
func (co *Coordinator) writeCall(ctx context.Context, si int, req *request) (*response, error) {
	sawIndeterminate := false
	var resp *response
	retryCfg := co.cfg.WriteRetry
	retryCfg.Retryable = transportFailure
	cl := co.clients[si]
	err := retry.Do(ctx, retryCfg, func() error {
		r, err := cl.call(ctx, req)
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
	si := co.smap.ShardOf(id)
	resp, err := co.writeCall(context.Background(), si, &request{Op: opInsert, Shard: si, IdemKey: co.nextIdemKey(), Doc: doc})
	if err != nil {
		return "", err
	}
	co.met.Counter("shardnet.coord.inserts").Inc()
	return resp.ID, nil
}

// Delete removes one document with the same retry/idempotency
// machinery as Insert.
func (co *Coordinator) Delete(id string) error {
	si := co.smap.ShardOf(id)
	_, err := co.writeCall(context.Background(), si, &request{Op: opDelete, Shard: si, IdemKey: co.nextIdemKey(), ID: id})
	return err
}

// -------------------------------------------------------------- reads

// readCall runs one read op against a shard with hedging plus a short
// retry, folding exhausted transport failures into the dark-shard
// error shape.
func (co *Coordinator) readCall(ctx context.Context, si int, req *request) (*response, error) {
	var resp *response
	retryCfg := co.cfg.ReadRetry
	retryCfg.Retryable = transportFailure
	cl := co.clients[si]
	err := retry.Do(ctx, retryCfg, func() error {
		r, err := cl.hedgedCall(ctx, req)
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
	si := co.smap.ShardOf(id)
	resp, err := co.readCall(context.Background(), si, &request{Op: opGet, Shard: si, ID: id})
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
	perShard := make(map[int][]string)
	for _, id := range ids {
		si := co.smap.ShardOf(id)
		perShard[si] = append(perShard[si], id)
	}
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
			resp, err := co.readCall(ctx, si, &request{Op: opGetMany, Shard: si, IDs: shardIDs})
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
// contribute zero (Count is introspective: a dark shard's documents are
// invisible until it recovers).
func (co *Coordinator) Count() int {
	counts := make([]int, co.NumShards())
	var wg sync.WaitGroup
	for si := range counts {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			resp, err := co.readCall(context.Background(), si, &request{Op: opCount, Shard: si})
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

// ScanContext streams every document in id order through
// docstore.Scan, failing loudly (dark-shard error) rather than silently
// dropping a partition.
func (co *Coordinator) ScanContext(ctx context.Context, fn func(jsondoc.Doc) bool) error {
	return docstore.Scan(ctx, co, fn)
}

// NumShards returns the shard count.
func (co *Coordinator) NumShards() int { return co.smap.NumShards() }

// ShardOfID places an id on the consistent-hash ring.
func (co *Coordinator) ShardOfID(id string) int { return co.smap.ShardOf(id) }

// ShardIDsContext lists one shard's ids (sorted server-side).
func (co *Coordinator) ShardIDsContext(ctx context.Context, si int) ([]string, error) {
	resp, err := co.readCall(ctx, si, &request{Op: opIDs, Shard: si})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// AllShardsServing reports whether every shard connection's breaker
// currently admits traffic — the cheap gate the index-native scoring
// path checks before trusting a full scatter.
func (co *Coordinator) AllShardsServing() bool {
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
// per-connection state.
func (co *Coordinator) Health(ctx context.Context) []ConnHealth {
	out := make([]ConnHealth, len(co.clients))
	var wg sync.WaitGroup
	for i, cl := range co.clients {
		wg.Add(1)
		go func(si int, cl *shardClient) {
			defer wg.Done()
			h := ConnHealth{Shard: si, Name: cl.name, Addr: cl.addr}
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
		}(i, cl)
	}
	wg.Wait()
	return out
}

// Ping dials every shard once, returning an error naming the
// unreachable ones — the startup fail-fast check.
func (co *Coordinator) Ping(ctx context.Context) error {
	var dark []string
	for si, cl := range co.clients {
		if _, err := cl.call(ctx, &request{Op: opPing, Shard: si}); err != nil {
			dark = append(dark, fmt.Sprintf("%s(%s)", cl.name, cl.addr))
		}
	}
	if len(dark) > 0 {
		return fmt.Errorf("shardnet: %d/%d shards unreachable: %v", len(dark), co.NumShards(), dark)
	}
	return nil
}
