package search

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"covidkg/internal/jsondoc"
	"covidkg/internal/pipeline"
	"covidkg/internal/textproc"
)

// The one scoring path (runQuery). Every query shape of every engine is
// ranked the same way: a sorted candidate id list merged off the query's
// posting cursor, each candidate scored by the query's ranker from the
// same cursor, the best k = pageNum·PerPage kept in a bounded heap under
// the total order (score desc, docID asc), and the ≤ PerPage winners
// turned into results with snippets.
//
// What varies is only whether the candidates' documents are read before
// scoring. A query derivable from postings alone is scored straight from
// the index — posting lists walked document-at-a-time, per-term
// max-score upper bounds skipping candidates that provably cannot enter
// the heap — and only its winners are fetched, in one batched GetMany.
// A query that needs the stored text (a quoted phrase is confirmed and
// scored against raw text; an unindexable phrase scans every id), or one
// issued while a shard is dark (what can be served is known only by
// reading), fetches every candidate first and scores them all in one
// parallel pass (each chunk forks the cursor): a phrase's contribution
// has no posting-derived bound, so nothing is pruned there. The ranker
// is the single scorer either way — same floats, same order — so a page
// does not depend on which of the two it was.

// boundPad and boundEps inflate pruning upper bounds so a bound that
// lands within float-rounding distance of the heap minimum is treated
// as potentially beating it (the candidate gets scored for real instead
// of pruned). Correctness never depends on the bound being tight —
// only on it never being low.
const (
	boundPad = 1 + 1e-9
	boundEps = 1e-12
)

// topkEntry is one heap slot: the fully-scored candidate, with its
// document when the candidates were read before scoring.
type topkEntry struct {
	docID string
	score float64
	doc   jsondoc.Doc
}

// topkHeap is a bounded min-heap whose root is the weakest kept entry
// under the result order (score desc, docID asc) — i.e. the root has
// the lowest score, largest docID on ties.
type topkHeap struct {
	k  int
	es []topkEntry
}

func (h *topkHeap) full() bool { return len(h.es) >= h.k }

// weaker reports whether entry a ranks below entry b in the final
// (score desc, docID asc) order.
func weaker(a, b topkEntry) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.docID > b.docID
}

// beats reports whether a candidate with the given score upper bound
// could displace the current weakest entry.
func (h *topkHeap) beats(bound float64, docID string) bool {
	root := h.es[0]
	if bound != root.score {
		return bound > root.score
	}
	return docID < root.docID
}

func (h *topkHeap) push(e topkEntry) {
	if len(h.es) < h.k {
		h.es = append(h.es, e)
		i := len(h.es) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !weaker(h.es[i], h.es[p]) {
				break
			}
			h.es[i], h.es[p] = h.es[p], h.es[i]
			i = p
		}
		return
	}
	if !weaker(h.es[0], e) {
		return // candidate is not stronger than the weakest kept entry
	}
	h.es[0] = e
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(h.es) && weaker(h.es[l], h.es[w]) {
			w = l
		}
		if r < len(h.es) && weaker(h.es[r], h.es[w]) {
			w = r
		}
		if w == i {
			return
		}
		h.es[i], h.es[w] = h.es[w], h.es[i]
		i = w
	}
}

// ranked drains the heap into (score desc, docID asc) order.
func (h *topkHeap) ranked() []topkEntry {
	out := h.es
	sort.Slice(out, func(i, j int) bool { return weaker(out[j], out[i]) })
	return out
}

// topkPool pools the per-query heap backing arrays.
var topkPool = sync.Pool{New: func() any { return &topkHeap{} }}

// selectFromPostings scores the candidates from the index alone and
// pushes them into h, skipping those whose max-score upper bound cannot
// beat the weakest kept entry once the heap is full.
func (e *Engine) selectFromPostings(ctx context.Context, h *topkHeap, q plan) error {
	var pruned int64
	for i, doc := range q.candidates {
		if i%pipeline.CancelCheckInterval == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		q.rank.cur.Seek(doc)
		if h.full() && !h.beats(q.rank.bound()*boundPad+boundEps, doc) {
			pruned++
			continue
		}
		// The bound only decides whether to score; what is kept is the
		// exact score accumulation.
		h.push(topkEntry{docID: doc, score: q.rank.scoreHere(nil).Total})
	}
	if pruned > 0 {
		e.met.Counter("topk_pruned_docs").Add(pruned)
	}
	return nil
}

// plan is one parsed query with its candidates resolved, ready to rank.
type plan struct {
	// candidates is the sorted id list the index resolved; nil means it
	// could not (a phrase of stopwords only) and every id is scanned.
	candidates []string
	// verify says candidates is a superset that match must still confirm
	// against the stored text (a quoted phrase took part).
	verify        bool
	match         func(jsondoc.Doc) bool
	snippetFields []string
	// rank scores the candidates, from the index snapshot they came from.
	rank *ranker
}

// readAndScore fetches every candidate's document (the ids come from an
// id-only scatter scan when the index could not supply them, and the
// match predicate then decides membership) and, in one parallel pass,
// applies the predicate and the ranker to each. It returns the hits in id
// order; a candidate that is deleted, on a dark shard (listed in
// missing) or rejected by the predicate is not one.
func (e *Engine) readAndScore(ctx context.Context, q plan) (hits []topkEntry, missing []int, err error) {
	start := time.Now()
	ids, verify := q.candidates, q.verify
	var scanMissing []int
	if ids == nil {
		if ids, scanMissing, err = e.scatterScanIDs(ctx); err != nil {
			return nil, nil, fmt.Errorf("search: scan: %w", err)
		}
		verify = true
	}
	docs, missing, err := e.resolveCandidates(ctx, ids)
	if err != nil {
		return nil, nil, fmt.Errorf("search: fetch: %w", err)
	}
	e.observeStage("fetch", time.Since(start))

	start = time.Now()
	hits = make([]topkEntry, len(ids))
	pipeline.ParallelChunksMin(len(ids), runtime.GOMAXPROCS(0), pipeline.MinItemsPerWorker, func(lo, hi int) {
		rank := *q.rank // same snapshot and tables, a cursor of this chunk's own
		rank.cur = q.rank.cur.Fork()
		for i := lo; i < hi; i++ {
			if (i-lo)%pipeline.CancelCheckInterval == 0 && ctx.Err() != nil {
				return
			}
			if d := docs[i]; d != nil && (!verify || q.match(d)) {
				hits[i] = topkEntry{docID: ids[i], score: rank.score(ids[i], d).Total, doc: d}
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("search: match: %w", err)
	}
	n := 0
	for _, h := range hits {
		if h.doc != nil {
			hits[n] = h
			n++
		}
	}
	e.observeStage("match", time.Since(start))
	return hits[:n], mergeMissing(scanMissing, missing), nil
}

// runQuery ranks one query for all three engines. The candidates'
// documents are read only when ranking needs them, and the reason is
// counted (candidate_read.<reason>): to verify a phrase, for a scan,
// because a shard is not serving and the page must account for what is
// missing, or — retry, which only runQuery itself passes — because a
// winner ranked from the index could not be fetched.
func (e *Engine) runQuery(ctx context.Context, q plan, retry bool, pageNum int) (Page, error) {
	if err := ctx.Err(); err != nil {
		return Page{}, fmt.Errorf("search: %w", err)
	}
	reason := ""
	switch {
	case retry:
		reason = "retry"
	case q.candidates == nil:
		reason = "scan"
	case q.verify:
		reason = "phrase"
	case !e.coll.AllShardsServing():
		reason = "dark_shard"
	}
	readDocs := reason != ""
	total := len(q.candidates)
	var hits []topkEntry
	var missing []int
	if readDocs {
		e.met.Counter("candidate_read_queries").Inc()
		e.met.Counter("candidate_read." + reason).Inc()
		var err error
		if hits, missing, err = e.readAndScore(ctx, q); err != nil {
			return Page{}, err
		}
		total = len(hits)
	}
	if err := ctx.Err(); err != nil { // a dead request gets an error, never a page
		return Page{}, fmt.Errorf("search: %w", err)
	}

	// Total counts every hit and an empty result set is still one (empty)
	// page. NumPages comes first so that a page past the end — however
	// large the number — is answered before anything is multiplied by it.
	numPages := max((total+PerPage-1)/PerPage, 1)
	page := Page{Total: total, PageNum: pageNum, PerPage: PerPage, NumPages: numPages}
	if len(missing) > 0 {
		page.Partial = true
		page.MissingShards = missing
	}
	if pageNum > numPages || total == 0 {
		return page, nil
	}

	h := topkPool.Get().(*topkHeap)
	defer func() {
		clear(h.es) // drop the documents
		h.es = h.es[:0]
		topkPool.Put(h)
	}()
	// The (score desc, docID asc) order is total, so k entries determine
	// the page exactly.
	h.k = min(pageNum*PerPage, total)
	start := time.Now()
	if readDocs {
		for _, hit := range hits {
			h.push(hit)
		}
	} else if err := e.selectFromPostings(ctx, h, q); err != nil {
		return Page{}, fmt.Errorf("search: topk: %w", err)
	}
	e.observeStage("topk", time.Since(start))

	// Materialize the winners; ranked from the index alone, their
	// documents are fetched now, in one batch.
	start = time.Now()
	winners := h.ranked()[(pageNum-1)*PerPage:]
	if !readDocs {
		ids := make([]string, len(winners))
		for i, w := range winners {
			ids[i] = w.docID
		}
		docs, _, err := e.coll.GetMany(ctx, ids) // a dark shard's documents come back nil
		if err != nil {
			return Page{}, fmt.Errorf("search: materialize: %w", err)
		}
		for i := range winners {
			winners[i].doc = docs[i]
		}
	}
	hl := textproc.CompileTerms(q.rank.terms, false)
	page.Results = make([]Result, 0, len(winners))
	for _, w := range winners {
		if w.doc == nil {
			// The winner was deleted, or its shard went dark, after it was
			// ranked from the index. Rank once more over the documents that
			// can still be read, which also accounts for a missing shard.
			return e.runQuery(ctx, q, true, pageNum)
		}
		r := resultFromDoc(w.doc, w.score)
		r.Snippets = appendSnippets(nil, w.doc, q.snippetFields, hl)
		page.Results = append(page.Results, r)
	}
	e.observeStage("materialize", time.Since(start))
	return page, nil
}
