// Package docstore is the COVIDKG document substrate: the Docs surface
// every upper layer reads and writes publications through, the one
// id-ordered full scan (Scan), JSON-lines checkpoint files (SaveTxn,
// LoadSnapshot) and the ShardError types a dark shard is reported with.
// A Collection is one shard's store, a lock and a map of encoded
// documents: a shardnet server keeps its partition in one, and the
// shardnet coordinator places documents over such servers, in this
// process or in covidkg-shard processes, standing in for the paper's
// sharded MongoDB cluster (§2, "Storage").
package docstore

import (
	"context"
	"errors"
	"fmt"
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
	ErrNotFound    = errors.New("docstore: document not found")
	ErrDuplicateID = errors.New("docstore: duplicate _id")
)

// Store is a set of named collections sharing one id sequence.
type Store struct {
	mu          sync.RWMutex
	collections map[string]*Collection

	idSeq atomic.Uint64
}

// Option is what WithShards and WithReplicas return; Open ignores it.
type Option struct{}

// WithShards is a no-op: a collection is one shard, and placement over
// shards is the shardnet coordinator's.
//
// Deprecated: kept only for benchmark/probes.go:59, which still passes
// it; delete it with that call site.
func WithShards(int) Option { return Option{} }

// WithReplicas is a no-op: every shard holds one copy.
//
// Deprecated: kept only for benchmark/probes.go:59, which still passes
// it; delete it with that call site.
func WithReplicas(int) Option { return Option{} }

// Open creates an empty in-memory store.
func Open(...Option) *Store {
	return &Store{collections: map[string]*Collection{}}
}

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
	c = &Collection{name: name, store: s, docs: map[string][]byte{}}
	s.collections[name] = c
	return c
}

// nextID generates a store-unique document id.
func (s *Store) nextID() string {
	return "doc-" + strconv.FormatUint(s.idSeq.Add(1), 36)
}

// Collection is a named set of documents, each kept as its
// jsondoc.Encode bytes. A stored slice is never written (a write swaps
// in a new one), so readers may copy or decode it after releasing the
// lock, and a document decoded from it may alias its strings.
type Collection struct {
	name  string
	store *Store

	mu   sync.RWMutex
	docs map[string][]byte
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Insert stores a document. A missing _id is assigned; the stored copy
// is detached from the caller's document. Returns the document id.
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.docs[id]; exists {
		return "", fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	c.docs[id] = enc
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
	c.mu.RLock()
	enc, ok := c.docs[id]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return enc, nil
}

// GetMany fetches a batch of documents, aligned 1:1 with ids (nil for
// absent ids); a collection is never missing a shard. It is a Get loop —
// the batch shape exists so the shardnet coordinator can coalesce it
// into one frame per shard behind the same Docs interface.
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

// Delete removes the document with the given id.
func (c *Collection) Delete(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.docs[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(c.docs, id)
	return nil
}

// Count returns the number of documents in the collection.
func (c *Collection) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// ScanContext streams every document to fn in id order through Scan;
// fn returning false stops the scan.
func (c *Collection) ScanContext(ctx context.Context, fn func(jsondoc.Doc) bool) error {
	return Scan(ctx, c, fn)
}

// IDs returns every document id, sorted.
func (c *Collection) IDs() []string {
	c.mu.RLock()
	ids := make([]string, 0, len(c.docs))
	for id := range c.docs {
		ids = append(ids, id)
	}
	c.mu.RUnlock()
	sort.Strings(ids)
	return ids
}
