// Package docstore is the COVIDKG back-end storage substrate: a sharded,
// concurrency-safe JSON document store standing in for the paper's
// sharded MongoDB cluster (§2, "Storage"). It offers named collections,
// hash sharding on the document id with one copy per shard, CRUD,
// id-ordered scans (one batch of documents held at a time) feeding the
// aggregation pipeline, and JSON-lines persistence. An in-process shard
// cannot fail on its own; a shard that can go dark is a covidkg-shard
// server behind the shardnet coordinator, which reports it with the
// ShardError types below.
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

	"covidkg/internal/jsondoc"
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
// of each shard.
type Store struct {
	numShards int

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

// Open creates an empty in-memory store.
func Open(opts ...Option) *Store {
	s := &Store{
		numShards:   4,
		collections: map[string]*Collection{},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// NumShards returns the configured shard count.
func (s *Store) NumShards() int { return s.numShards }

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

// Stats summarizes the store's physical layout.
type Stats struct {
	Collections int
	Documents   int
	Bytes       int // stored encoded bytes across all shards
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
}

func newCollection(name string, s *Store) *Collection {
	c := &Collection{
		name:   name,
		store:  s,
		shards: make([]*shard, s.numShards),
	}
	for i := range c.shards {
		c.shards[i] = &shard{docs: map[string][]byte{}}
	}
	return c
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Insert stores a document on its shard. A missing _id is assigned; the
// stored copy is detached from the caller's document. Returns the
// document id.
func (c *Collection) Insert(d jsondoc.Doc) (string, error) {
	doc := jsondoc.NormalizeDoc(d)
	id, _ := doc[IDField].(string)
	if id == "" {
		id = c.store.nextID()
		doc[IDField] = id
	}
	enc, err := jsondoc.Encode(doc) // refuses NaN and ±Inf: jsondoc.ErrInvalid
	if err != nil {
		return "", fmt.Errorf("docstore: insert %s: %w", id, err)
	}
	sh := c.lockForWrite(id)
	if _, exists := sh.docs[id]; exists {
		sh.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	sh.docs[id] = enc
	sh.bytes += len(enc)
	sh.mu.Unlock()
	return id, nil
}

// Get returns a freshly decoded copy of the document with the given id:
// its maps and slices are the caller's, and its strings alias the
// immutable stored encoding.
func (c *Collection) Get(id string) (jsondoc.Doc, error) {
	enc, err := c.GetBinary(id)
	if err != nil {
		return nil, err
	}
	return jsondoc.FromBinaryAliased(enc)
}

// GetBinary is Get returning the stored encoding itself, which the
// caller must not write.
func (c *Collection) GetBinary(id string) ([]byte, error) {
	sh := c.shards[shardOf(id, len(c.shards))]
	sh.mu.RLock()
	enc, ok := sh.docs[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return enc, nil
}

// GetMany fetches a batch of documents, aligned 1:1 with ids (nil for
// absent ids); no in-process shard is ever missing. In process this is
// a Get loop — the batch shape exists so the networked coordinator can
// coalesce it into one frame per shard behind the same Docs interface.
func (c *Collection) GetMany(ctx context.Context, ids []string) ([]jsondoc.Doc, []int, error) {
	docs := make([]jsondoc.Doc, len(ids))
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		docs[i], _ = c.Get(id) // the only failure is ErrNotFound
	}
	return docs, nil, nil
}

// Update applies fn to a copy of the document and stores the result.
// fn returning an error aborts the update.
func (c *Collection) Update(id string, fn func(jsondoc.Doc) error) error {
	sh := c.lockForWrite(id)
	defer sh.mu.Unlock()
	old, ok := sh.docs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	doc, _ := jsondoc.FromBinaryAliased(old) // a stored encoding always decodes
	if err := fn(doc); err != nil {
		return err
	}
	doc[IDField] = id
	enc, err := jsondoc.Encode(doc)
	if err != nil {
		return fmt.Errorf("docstore: update %s: %w", id, err)
	}
	sh.bytes += len(enc) - len(old)
	sh.docs[id] = enc
	return nil
}

// Delete removes the document with the given id.
func (c *Collection) Delete(id string) error {
	sh := c.lockForWrite(id)
	old, ok := sh.docs[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	sh.bytes -= len(old)
	delete(sh.docs, id)
	sh.mu.Unlock()
	return nil
}

// Count returns the number of documents in the collection.
func (c *Collection) Count() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		n += len(sh.docs)
		sh.mu.RUnlock()
	}
	return n
}

// ScanContext streams every document to fn in id order through Scan;
// fn returning false stops the scan.
func (c *Collection) ScanContext(ctx context.Context, fn func(jsondoc.Doc) bool) error {
	return Scan(ctx, c, fn)
}

// IDs returns every document id, sorted.
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
