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
// What varies is only which candidates' documents are read before
// scoring, and that is a fact about each candidate, not a mode of the
// query. A candidate whose ranking postings decide is scored straight
// from the index — posting lists walked document-at-a-time, per-term
// max-score upper bounds skipping candidates that provably cannot enter
// the heap — and fetched only if it wins. A candidate whose postings
// allow a quoted phrase (its words adjacent in a ranked field) is read
// first — one batched GetMany for all of them — confirmed against its
// text and scored with it in hand: a phrase's contribution has no
// posting-derived bound. Everyone is read only when postings cannot say
// who the candidates are (an unindexable phrase scans every id) or what
// can be served (a shard is dark). The ranker is the single scorer either
// way, and credits a phrase only where postings allow it — same floats,
// same order — so a page does not depend on who was read.

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

// selectFromPostings scores ids — all but those in skip, a sorted subset
// — from the index alone and pushes them into h, skipping as well those
// whose max-score upper bound cannot beat the weakest kept entry once the
// heap is full.
func (e *Engine) selectFromPostings(ctx context.Context, h *topkHeap, rank *ranker, ids, skip []string) error {
	var pruned int64
	for i, doc := range ids {
		if i%pipeline.CancelCheckInterval == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		if len(skip) > 0 && skip[0] == doc {
			skip = skip[1:]
			continue
		}
		rank.cur.Seek(doc)
		if h.full() && !h.beats(rank.bound()*boundPad+boundEps, doc) {
			pruned++
			continue
		}
		// The bound only decides whether to score; what is kept is the
		// exact score accumulation.
		h.push(topkEntry{docID: doc, score: rank.scoreHere(nil).Total})
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
	// verify says a quoted phrase took part: candidates is a superset, and
	// match must still confirm against the stored text those of them the
	// ranker could not vouch for — needText, a sorted subset.
	verify        bool
	needText      []string
	match         func(jsondoc.Doc) bool
	snippetFields []string
	// rank scores the candidates, from the index snapshot they came from.
	rank *ranker
}

// readAndScore fetches the documents of ids (nil: every id, from an
// id-only scatter scan — the index could not supply candidates, and the
// match predicate then decides membership) and, in one parallel pass,
// applies the predicate and the ranker to each. It returns the hits in id
// order; an id that is deleted, on a dark shard (listed in missing) or
// rejected by the predicate is not one.
func (e *Engine) readAndScore(ctx context.Context, q plan, ids []string) (hits []topkEntry, missing []int, err error) {
	start := time.Now()
	verify := q.verify
	var scanMissing []int
	if ids == nil {
		if ids, scanMissing, err = e.scatterScanIDs(ctx); err != nil {
			return nil, nil, fmt.Errorf("search: scan: %w", err)
		}
		verify = true
	}
	e.met.Counter("candidate_read_docs").Add(int64(len(ids)))
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

// runQuery ranks one query for all three engines. A candidate's document
// is read before ranking only when ranking needs it: the need-text
// candidates of a query with a quoted phrase, or everyone — for a scan,
// because a shard is not serving and the page must account for what is
// missing, or on a retry, which only runQuery itself passes, because a
// winner ranked from the index could not be fetched. A query that reads
// at least one says why (candidate_read.<reason>, its own reason first).
func (e *Engine) runQuery(ctx context.Context, q plan, retry bool, pageNum int) (Page, error) {
	if err := ctx.Err(); err != nil {
		return Page{}, fmt.Errorf("search: %w", err)
	}
	everyone := retry || q.candidates == nil || !e.coll.AllShardsServing()
	reason := "dark_shard"
	switch {
	case retry:
		reason = "retry"
	case q.candidates == nil:
		reason = "scan"
	case q.verify:
		reason = "phrase"
	}
	read, unread := q.needText, len(q.candidates)-len(q.needText) // unread are scored from postings
	if everyone {
		read, unread = q.candidates, 0
	}
	var hits []topkEntry
	var missing []int
	if everyone || len(read) > 0 {
		e.met.Counter("candidate_read_queries").Inc()
		e.met.Counter("candidate_read." + reason).Inc()
		var err error
		if hits, missing, err = e.readAndScore(ctx, q, read); err != nil {
			return Page{}, err
		}
		if !everyone && len(missing) > 0 {
			// A shard went dark under the read: what can be served is then
			// known only by reading everyone.
			return e.runQuery(ctx, q, true, pageNum)
		}
	}
	if err := ctx.Err(); err != nil { // a dead request gets an error, never a page
		return Page{}, fmt.Errorf("search: %w", err)
	}

	// Total counts every hit and an empty result set is still one (empty)
	// page. NumPages comes first so that a page past the end — however
	// large the number — is answered before anything is multiplied by it.
	total := len(hits) + unread
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
	// the page exactly: the candidates read, then the rest under pruning.
	h.k = min(pageNum*PerPage, total)
	start := time.Now()
	for _, hit := range hits {
		h.push(hit)
	}
	if err := e.selectFromPostings(ctx, h, q.rank, q.candidates, read); err != nil {
		return Page{}, fmt.Errorf("search: topk: %w", err)
	}
	e.observeStage("topk", time.Since(start))

	// Materialize the winners; those ranked from the index alone are
	// fetched now, in one batch.
	start = time.Now()
	winners := h.ranked()[(pageNum-1)*PerPage:]
	ids := make([]string, 0, len(winners))
	for _, w := range winners {
		if w.doc == nil {
			ids = append(ids, w.docID)
		}
	}
	if len(ids) > 0 {
		docs, _, err := e.coll.GetMany(ctx, ids) // a dark shard's documents come back nil
		if err != nil {
			return Page{}, fmt.Errorf("search: materialize: %w", err)
		}
		for i := range winners {
			if winners[i].doc == nil {
				winners[i].doc, docs = docs[0], docs[1:]
			}
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
