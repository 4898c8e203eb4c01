// Package docstore is the COVIDKG back-end storage substrate: a sharded,
// concurrency-safe JSON document store standing in for the paper's
// sharded MongoDB cluster (§2, "Storage"). It offers named collections,
// hash sharding on the document id with one copy per shard, each shard
// a failure domain (a breaker and a failpoint target; a dark shard
// rejects writes whole and fails its reads), CRUD, snapshot scans
// feeding the aggregation pipeline, secondary equality indexes, and
// JSON-lines persistence.
package docstore

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"covidkg/internal/breaker"
	"covidkg/internal/failpoint"
	"covidkg/internal/faultfs"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// IDField is the reserved primary-key field, mirroring MongoDB's _id.
const IDField = "_id"

// Errors returned by the store.
var (
	ErrNotFound     = errors.New("docstore: document not found")
	ErrDuplicateID  = errors.New("docstore: duplicate _id")
	ErrNoCollection = errors.New("docstore: collection does not exist")
)

// Store is a sharded multi-collection document store holding one copy
// of each shard. Breakers and failpoints are store-level: a shard is one
// failure domain shared by every collection.
type Store struct {
	numShards int
	fs        faultfs.FS          // filesystem for persistence; tests inject faults
	fp        *failpoint.Registry // runtime fault layer; nil means healthy
	met       *metrics.Registry
	brkCfg    breaker.Config
	brk       []*breaker.Breaker // per shard
	targets   []string           // ShardTarget per shard

	mu          sync.RWMutex
	collections map[string]*Collection

	idSeq atomic.Uint64
}

// Option configures a Store.
type Option func(*Store)

// WithShards sets the shard count (default 4, min 1).
func WithShards(n int) Option {
	return func(s *Store) {
		if n >= 1 {
			s.numShards = n
		}
	}
}

// WithReplicas is a no-op: every shard holds one copy.
//
// Deprecated: kept only for benchmark/probes.go:59, which still passes
// it; delete it with that call site.
func WithReplicas(int) Option { return func(*Store) {} }

// WithFS substitutes the filesystem used by Save/Load. Tests pass a
// faultfs.Faulty to simulate crashes mid-save.
func WithFS(fs faultfs.FS) Option {
	return func(s *Store) {
		if fs != nil {
			s.fs = fs
		}
	}
}

// WithFailpoints attaches the runtime fault registry; every shard
// access checks its ShardTarget against it. Nil (the default) means
// no injection.
func WithFailpoints(fp *failpoint.Registry) Option {
	return func(s *Store) { s.fp = fp }
}

// WithBreaker tunes the per-shard circuit breakers (threshold,
// cooldown, clock). The store installs its own OnStateChange hook to
// count breaker_open transitions.
func WithBreaker(cfg breaker.Config) Option {
	return func(s *Store) { s.brkCfg = cfg }
}

// WithMetrics directs the store's breaker_open counter to reg (default
// metrics.Default()).
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Store) {
		if reg != nil {
			s.met = reg
		}
	}
}

// Open creates an empty in-memory store.
func Open(opts ...Option) *Store {
	s := &Store{
		numShards:   4,
		fs:          faultfs.OS{},
		met:         metrics.Default(),
		collections: map[string]*Collection{},
	}
	for _, o := range opts {
		o(s)
	}
	cfg := s.brkCfg
	prev := cfg.OnStateChange
	cfg.OnStateChange = func(from, to breaker.State) {
		if to == breaker.Open {
			s.met.Counter("breaker_open").Inc()
		}
		if prev != nil {
			prev(from, to)
		}
	}
	s.brk = make([]*breaker.Breaker, s.numShards)
	s.targets = make([]string, s.numShards)
	for si := range s.brk {
		s.brk[si] = breaker.New(cfg)
		s.targets[si] = ShardTarget(si)
	}
	return s
}

// NumShards returns the configured shard count.
func (s *Store) NumShards() int { return s.numShards }

// FS returns the filesystem used for persistence, so higher layers
// (core.System checkpoints) share the store's fault-injection surface.
func (s *Store) FS() faultfs.FS { return s.fs }

// Failpoints returns the runtime fault registry (nil when chaos is
// off), so chaos harnesses can address the same targets.
func (s *Store) Failpoints() *failpoint.Registry { return s.fp }

// Collection returns the named collection, creating it on first use.
func (s *Store) Collection(name string) *Collection {
	s.mu.RLock()
	c, ok := s.collections[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.collections[name]; ok {
		return c
	}
	c = newCollection(name, s)
	s.collections[name] = c
	return c
}

// HasCollection reports whether name exists without creating it.
func (s *Store) HasCollection(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.collections[name]
	return ok
}

// DropCollection removes the named collection and its data.
func (s *Store) DropCollection(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.collections, name)
}

// CollectionNames returns the existing collection names, sorted.
func (s *Store) CollectionNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.collections))
	for n := range s.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// nextID generates a store-unique document id.
func (s *Store) nextID() string {
	return "doc-" + strconv.FormatUint(s.idSeq.Add(1), 36)
}

// Stats summarizes the store's physical layout (introspective — no
// breaker or failpoint involvement).
type Stats struct {
	Collections int
	Documents   int
	Bytes       int // approximate JSON bytes across all shards
	PerShard    []int
}

// Stats computes storage statistics across collections and shards.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Collections: len(s.collections), PerShard: make([]int, s.numShards)}
	for _, c := range s.collections {
		for i, sh := range c.shards {
			sh.mu.RLock()
			st.Documents += len(sh.docs)
			st.PerShard[i] += len(sh.docs)
			st.Bytes += sh.bytes
			sh.mu.RUnlock()
		}
	}
	return st
}

// shardOf hashes an id onto a shard index.
func shardOf(id string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// Collection is a named set of documents partitioned over the store's
// shards.
type Collection struct {
	name   string
	store  *Store
	shards []*shard

	idxMu   sync.RWMutex
	indexes map[string]*equalityIndex
}

func newCollection(name string, s *Store) *Collection {
	c := &Collection{
		name:    name,
		store:   s,
		shards:  make([]*shard, s.numShards),
		indexes: map[string]*equalityIndex{},
	}
	for i := range c.shards {
		c.shards[i] = &shard{docs: map[string]jsondoc.Doc{}}
	}
	return c
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Insert stores a document on its shard. A missing _id is assigned; the
// stored copy is detached from the caller's document. Returns the
// document id, or ErrNoQuorum (wrapped in a ShardError) when the shard
// is dark — in which case the write was applied nowhere.
func (c *Collection) Insert(d jsondoc.Doc) (string, error) {
	doc := jsondoc.NormalizeDoc(d)
	id, _ := doc[IDField].(string)
	if id == "" {
		id = c.store.nextID()
		doc[IDField] = id
	}
	size := len(doc.JSON())
	sh, err := c.lockForWrite(id)
	if err != nil {
		return "", err
	}
	if _, exists := sh.docs[id]; exists {
		sh.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	sh.docs[id] = doc
	sh.bytes += size
	sh.mu.Unlock()
	c.indexInsert(id, doc)
	return id, nil
}

// InsertMany inserts a batch, stopping at the first error.
func (c *Collection) InsertMany(docs []jsondoc.Doc) ([]string, error) {
	ids := make([]string, 0, len(docs))
	for _, d := range docs {
		id, err := c.Insert(d)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Get returns a deep copy of the document with the given id. When its
// shard is dark the error is a ShardError wrapping ErrShardUnavailable.
func (c *Collection) Get(id string) (jsondoc.Doc, error) {
	si := shardOf(id, len(c.shards))
	if err := c.store.readGate(si); err != nil {
		return nil, err
	}
	sh := c.shards[si]
	sh.mu.RLock()
	doc, ok := sh.docs[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return doc.Clone(), nil
}

// GetMany fetches a batch of documents, aligned 1:1 with ids (nil for
// absent ids and ids on dark shards); missing lists the dark shard
// indices, sorted and deduplicated. In process this is a Get loop —
// the batch shape exists so the networked coordinator can coalesce it
// into one frame per shard behind the same Docs interface.
func (c *Collection) GetMany(ctx context.Context, ids []string) ([]jsondoc.Doc, []int, error) {
	docs := make([]jsondoc.Doc, len(ids))
	var missing []int
	seen := make(map[int]bool)
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		d, err := c.Get(id)
		if err != nil {
			if si, dark := UnavailableShard(err); dark && !seen[si] {
				seen[si] = true
				missing = append(missing, si)
			}
			continue
		}
		docs[i] = d
	}
	sort.Ints(missing)
	return docs, missing, nil
}

// Replace swaps the document with the given id for a new body (the _id
// is preserved).
func (c *Collection) Replace(id string, d jsondoc.Doc) error {
	doc := jsondoc.NormalizeDoc(d)
	doc[IDField] = id
	size := len(doc.JSON())
	sh, err := c.lockForWrite(id)
	if err != nil {
		return err
	}
	old, ok := sh.docs[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	sh.bytes += size - len(old.JSON())
	sh.docs[id] = doc
	sh.mu.Unlock()
	c.indexRemove(id, old)
	c.indexInsert(id, doc)
	return nil
}

// Update applies fn to a copy of the document and stores the result.
// fn returning an error aborts the update.
func (c *Collection) Update(id string, fn func(jsondoc.Doc) error) error {
	sh, err := c.lockForWrite(id)
	if err != nil {
		return err
	}
	old, ok := sh.docs[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	doc := old.Clone()
	if err := fn(doc); err != nil {
		sh.mu.Unlock()
		return err
	}
	doc[IDField] = id
	sh.bytes += len(doc.JSON()) - len(old.JSON())
	sh.docs[id] = doc
	sh.mu.Unlock()
	c.indexRemove(id, old)
	c.indexInsert(id, doc)
	return nil
}

// Delete removes the document with the given id.
func (c *Collection) Delete(id string) error {
	sh, err := c.lockForWrite(id)
	if err != nil {
		return err
	}
	old, ok := sh.docs[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	sh.bytes -= len(old.JSON())
	delete(sh.docs, id)
	sh.mu.Unlock()
	c.indexRemove(id, old)
	return nil
}

// Count returns the number of documents in the collection
// (introspective: no breaker or failpoint involvement).
func (c *Collection) Count() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		n += len(sh.docs)
		sh.mu.RUnlock()
	}
	return n
}

// Scan streams a snapshot of every document to fn; fn returning false
// stops the scan. Documents are deep copies; mutation is safe. Shards
// are visited in order, ids within a shard in sorted order, so scans
// are deterministic.
func (c *Collection) Scan(fn func(jsondoc.Doc) bool) {
	_ = c.ScanContext(context.Background(), fn)
}

// ScanCheckInterval is how many documents ScanContext processes between
// context checks; it bounds how long a cancelled scan keeps cloning.
const ScanCheckInterval = 64

// ScanContext is Scan under a request context: shard snapshots and the
// callback loop both check ctx every ScanCheckInterval documents, so a
// client that hung up stops costing CPU within one interval. A dark
// shard fails the scan with a ShardError wrapping ErrShardUnavailable —
// full scans must fail loudly rather than silently drop a partition.
// Degraded readers that can tolerate missing shards use
// SnapshotShardContext per shard instead.
func (c *Collection) ScanContext(ctx context.Context, fn func(jsondoc.Doc) bool) error {
	n := 0
	for si := range c.shards {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		docs, err := c.SnapshotShardContext(ctx, si)
		if err != nil {
			return err
		}
		for _, d := range docs {
			n++
			if n%ScanCheckInterval == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			if !fn(d) {
				return nil
			}
		}
	}
	return nil
}

// All returns a snapshot of every document, deterministic order.
func (c *Collection) All() []jsondoc.Doc {
	out := make([]jsondoc.Doc, 0, c.Count())
	c.Scan(func(d jsondoc.Doc) bool {
		out = append(out, d)
		return true
	})
	return out
}

// IDs returns every document id, sorted (introspective).
func (c *Collection) IDs() []string {
	var out []string
	for _, sh := range c.shards {
		sh.mu.RLock()
		for id := range sh.docs {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Find returns copies of all documents for which pred returns true.
func (c *Collection) Find(pred func(jsondoc.Doc) bool) []jsondoc.Doc {
	var out []jsondoc.Doc
	c.Scan(func(d jsondoc.Doc) bool {
		if pred(d) {
			out = append(out, d)
		}
		return true
	})
	return out
}
