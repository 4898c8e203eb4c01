package search

import (
	"container/list"
	"encoding/json"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// Default query-cache bounds: page-1 queries repeat heavily in an
// interactive corpus browser, so a modest LRU absorbs most of the read
// load without risking memory blow-up on pathological result pages.
const (
	defaultCacheEntries = 1024
	defaultCacheBytes   = 64 << 20
)

// CacheStats is a point-in-time view of the query cache. StaleGen and
// StaleTerm break the misses down by invalidation cause: StaleGen
// counts entries dropped by a global generation bump (removal, option
// change), StaleTerm counts entries dropped because a write touched one
// of the entry's own scope terms — the per-segment/term-scoped
// invalidation a live ingest stream exercises. A cache that stays warm
// under a writer shows Hits climbing while StaleTerm stays proportional
// to writes that actually overlap the query mix.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	StaleGen  int64 `json:"stale_gen"`
	StaleTerm int64 `json:"stale_term"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// cacheKey identifies one cached page: which engine answered, the
// canonicalized query (parsed terms, so "Masks  study" and "masks study"
// share an entry), and the page number.
type cacheKey struct {
	engine string
	query  string
	page   int
}

// cacheScope is the invalidation fingerprint a page is cached under:
// the engine generation (global invalidation: removals, option
// changes), and either the per-term write generations of the query's
// index terms (scoped invalidation: the page goes stale only when one
// of its own terms is written) or, for queries whose term set the index
// cannot bound (a quoted phrase with no content words), the index's
// global write sequence.
type cacheScope struct {
	gen   uint64
	terms []string
	gens  []uint64
	// all marks an unbounded scope: validate against writeSeq instead
	// of per-term gens.
	all      bool
	writeSeq uint64
}

// staleness compares a stored scope against the current one: 0 fresh,
// 1 stale by generation, 2 stale by term write.
func (sc cacheScope) staleness(now cacheScope) int {
	if sc.gen != now.gen {
		return 1
	}
	if sc.all || now.all {
		if sc.all != now.all || sc.writeSeq != now.writeSeq {
			return 2
		}
		return 0
	}
	if len(sc.gens) != len(now.gens) {
		return 2
	}
	for i := range sc.gens {
		if sc.gens[i] != now.gens[i] {
			return 2
		}
	}
	return 0
}

// cacheEntry is one LRU slot: a page's encoded response body.
type cacheEntry struct {
	key   cacheKey
	body  []byte
	scope cacheScope
}

// queryCache is a doubly-bounded (entries and bytes) LRU of the encoded
// bodies of computed result pages; the byte bound counts body bytes
// exactly. Invalidation is scope-based: entries carry the
// generation and per-term write fingerprints they were computed under
// and are discarded on lookup when the current fingerprint no longer
// matches — no sweep, and a write to term X never evicts pages for
// queries that do not involve X.
type queryCache struct {
	mu       sync.Mutex
	maxItems int
	maxBytes int64
	curBytes int64
	ll       *list.List // front = most recent; values are *cacheEntry
	items    map[cacheKey]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	staleGen  atomic.Int64
	staleTerm atomic.Int64
}

// newQueryCache builds a cache; maxItems ≤ 0 or maxBytes ≤ 0 disables
// caching entirely.
func newQueryCache(maxItems int, maxBytes int64) *queryCache {
	return &queryCache{
		maxItems: maxItems,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    map[cacheKey]*list.Element{},
	}
}

func (c *queryCache) enabled() bool { return c.maxItems > 0 && c.maxBytes > 0 }

// get returns the cached body for key if present and still fresh under
// the current scope fingerprint. Stale entries are removed on sight. The
// body is shared: callers must not modify it.
func (c *queryCache) get(key cacheKey, now cacheScope) ([]byte, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if st := ent.scope.staleness(now); st != 0 {
		c.removeLocked(el)
		c.mu.Unlock()
		c.misses.Add(1)
		if st == 1 {
			c.staleGen.Add(1)
		} else {
			c.staleTerm.Add(1)
		}
		return nil, false
	}
	c.ll.MoveToFront(el)
	body := ent.body
	c.mu.Unlock()
	c.hits.Add(1)
	return body, true
}

// put stores a computed page's body under the scope fingerprint captured
// before the computation started, so a concurrent write to one of the
// query's terms invalidates it. Returns the number of entries evicted
// to make room. Bodies larger than the whole byte budget are not cached.
func (c *queryCache) put(key cacheKey, body []byte, scope cacheScope) int64 {
	if !c.enabled() {
		return 0
	}
	size := int64(len(body))
	if size > c.maxBytes {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	ent := &cacheEntry{key: key, body: body, scope: scope}
	c.items[key] = c.ll.PushFront(ent)
	c.curBytes += size
	var evicted int64
	for (len(c.items) > c.maxItems || c.curBytes > c.maxBytes) && c.ll.Len() > 1 {
		c.removeLocked(c.ll.Back())
		evicted++
	}
	c.evictions.Add(evicted)
	return evicted
}

// removeLocked unlinks one entry; callers hold c.mu.
func (c *queryCache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.curBytes -= int64(len(ent.body))
}

// stats snapshots the counters.
func (c *queryCache) stats() CacheStats {
	c.mu.Lock()
	entries, bytes := len(c.items), c.curBytes
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		StaleGen:  c.staleGen.Load(),
		StaleTerm: c.staleTerm.Load(),
		Entries:   entries,
		Bytes:     bytes,
	}
}

// encodePage renders pg as the /api/v1/search response body: the bytes
// a json.Encoder writes for it, trailing newline included.
func encodePage(pg Page) ([]byte, error) {
	b, err := json.Marshal(pg)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// decodePage is encodePage's inverse for the pages roundTrips accepts.
func decodePage(body []byte) (Page, error) {
	var pg Page
	err := json.Unmarshal(body, &pg)
	return pg, err
}

// roundTrips reports whether pg's encoded body decodes back to a page
// reflect.DeepEqual to pg, the condition for caching the body. Every
// string must be valid UTF-8 (encoding/json replaces invalid bytes with
// U+FFFD), and MissingShards must not be an empty non-nil list
// (omitempty drops it, so it decodes as nil). A non-finite score fails
// earlier: it does not encode at all.
func roundTrips(pg Page) bool {
	if pg.MissingShards != nil && len(pg.MissingShards) == 0 {
		return false
	}
	for _, r := range pg.Results {
		if !utf8.ValidString(r.DocID) || !utf8.ValidString(r.Title) || !utf8.ValidString(r.Journal) {
			return false
		}
		for _, a := range r.Authors {
			if !utf8.ValidString(a) {
				return false
			}
		}
		for _, sn := range r.Snippets {
			if !utf8.ValidString(sn.Field) || !utf8.ValidString(sn.Text) {
				return false
			}
		}
	}
	return true
}
