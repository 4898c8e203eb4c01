package search

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// fakeBody is the cached body of a one-result page.
func fakeBody(id string, titleLen int) []byte {
	body, err := encodePage(Page{
		Results: []Result{{DocID: id, Title: strings.Repeat("x", titleLen)}},
		Total:   1, PageNum: 1, PerPage: PerPage, NumPages: 1,
	})
	if err != nil {
		panic(err)
	}
	return body
}

func TestCacheEntryBoundEvictsLRU(t *testing.T) {
	c := newQueryCache(3, 1<<20)
	for i := 0; i < 4; i++ {
		c.put(cacheKey{"all", fmt.Sprintf("q%d", i), 1}, fakeBody("d", 10), cacheScope{gen: 1})
	}
	st := c.stats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d", st.Entries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	// q0 was least recently used and must be gone; q3 must be present
	if _, ok := c.get(cacheKey{"all", "q0", 1}, cacheScope{gen: 1}); ok {
		t.Fatal("evicted entry still served")
	}
	if _, ok := c.get(cacheKey{"all", "q3", 1}, cacheScope{gen: 1}); !ok {
		t.Fatal("recent entry missing")
	}
	// touching q1 then inserting must evict q2, not q1
	c.get(cacheKey{"all", "q1", 1}, cacheScope{gen: 1})
	c.put(cacheKey{"all", "q4", 1}, fakeBody("d", 10), cacheScope{gen: 1})
	if _, ok := c.get(cacheKey{"all", "q1", 1}, cacheScope{gen: 1}); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if _, ok := c.get(cacheKey{"all", "q2", 1}, cacheScope{gen: 1}); ok {
		t.Fatal("LRU entry survived")
	}
}

func TestCacheByteBound(t *testing.T) {
	one := int64(len(fakeBody("d", 1000)))
	c := newQueryCache(100, 2*one+one/2) // room for two big pages, not three
	for i := 0; i < 3; i++ {
		c.put(cacheKey{"all", fmt.Sprintf("q%d", i), 1}, fakeBody("d", 1000), cacheScope{gen: 1})
	}
	st := c.stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d", st.Entries)
	}
	if st.Bytes != 2*one { // the bound counts body bytes exactly
		t.Fatalf("bytes = %d, want %d", st.Bytes, 2*one)
	}
	// a single page larger than the whole budget is never cached
	c2 := newQueryCache(100, 64)
	c2.put(cacheKey{"all", "big", 1}, fakeBody("d", 10000), cacheScope{gen: 1})
	if st := c2.stats(); st.Entries != 0 {
		t.Fatalf("oversized page cached: %+v", st)
	}
}

func TestCacheGenerationInvalidation(t *testing.T) {
	c := newQueryCache(10, 1<<20)
	key := cacheKey{"all", "masks", 1}
	c.put(key, fakeBody("d1", 10), cacheScope{gen: 5})
	if _, ok := c.get(key, cacheScope{gen: 5}); !ok {
		t.Fatal("same-generation lookup missed")
	}
	// generation moved on: entry is stale, removed on sight
	if _, ok := c.get(key, cacheScope{gen: 6}); ok {
		t.Fatal("stale entry served")
	}
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("stale entry retained: %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, c := range []*queryCache{newQueryCache(0, 1<<20), newQueryCache(10, 0)} {
		c.put(cacheKey{"all", "q", 1}, fakeBody("d", 10), cacheScope{gen: 1})
		if _, ok := c.get(cacheKey{"all", "q", 1}, cacheScope{gen: 1}); ok {
			t.Fatal("disabled cache served an entry")
		}
		if st := c.stats(); st.Entries != 0 {
			t.Fatalf("disabled cache stored: %+v", st)
		}
	}
}

// TestEngineCacheHitAndIngestInvalidation is the end-to-end invalidation
// contract: repeat queries hit the cache, and an ingest between two
// identical queries makes the second one see the new document.
func TestEngineCacheHitAndIngestInvalidation(t *testing.T) {
	e := testEngine(t)
	p1, err := e.SearchAllContext(context.Background(), "masks", 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.SearchAllContext(context.Background(), "masks", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Total != p1.Total {
		t.Fatalf("repeat query changed: %d vs %d", p2.Total, p1.Total)
	}
	st := e.CacheStats()
	if st.Hits < 1 {
		t.Fatalf("repeat query did not hit cache: %+v", st)
	}

	if _, err := e.AddDocument(pub("", "New masks meta-analysis", "Masks again.", "")); err != nil {
		t.Fatal(err)
	}
	p3, err := e.SearchAllContext(context.Background(), "masks", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Total != p1.Total+1 {
		t.Fatalf("stale page after ingest: total %d, want %d", p3.Total, p1.Total+1)
	}

	// normalization: whitespace/case variants share one entry
	before := e.CacheStats().Hits
	if _, err := e.SearchAllContext(context.Background(), "  MASKS ", 1); err != nil {
		t.Fatal(err)
	}
	if e.CacheStats().Hits != before+1 {
		t.Fatal("normalized query variant missed the cache")
	}
}

func TestSetRankOptionsInvalidatesCache(t *testing.T) {
	e := testEngine(t)
	if _, err := e.SearchAllContext(context.Background(), "ventilators", 1); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	e.SetRankOptions(RankOptions{NoSynonyms: true})
	if e.Generation() == gen {
		t.Fatal("option change did not bump generation")
	}
	// synonym-only doc p2 ("immunization") must vanish under NoSynonyms…
	// here: recompute happens, not a stale cached page
	p, err := e.SearchAllContext(context.Background(), "ventilators", 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = p // contents checked elsewhere; the point is no stale serve
	if e.CacheStats().Hits != 0 {
		t.Fatalf("served stale page across option change: %+v", e.CacheStats())
	}
}
