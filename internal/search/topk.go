package search

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"covidkg/internal/jsondoc"
	"covidkg/internal/pipeline"
	"covidkg/internal/textproc"
)

// The index-native top-k scoring path. Instead of materializing every
// candidate document and ranking the full set before throwing away all
// but one page (the pipeline path), this path walks the per-term
// posting lists document-at-a-time, scores candidates straight from the
// index, keeps only the best k = pageNum·PerPage (+overfetch) in a
// bounded heap, and materializes just the ≤ PerPage winners — one
// batched GetMany, then one matching pass per snippet text — for
// snippets. Per-term max-score upper bounds (classic max-score early
// termination) let fully-scored work be skipped for candidates that
// provably cannot enter the heap.
//
// The path is only taken for query shapes whose ranking is derivable
// from postings alone — no quoted phrases (those need substring
// verification against raw text) and no unresolvable scans — and only
// while every shard is serving, so a degraded partial response always
// comes from the pipeline path. Within those shapes the ranking is
// bit-identical to the pipeline path: survivors are scored by the very
// same e.score accumulation the pipeline uses, and the precomputed
// partials serve only as pruning bounds (padded against float drift).

// topkOverfetch extends the heap past pageNum·PerPage. The (score desc,
// docID asc) order is total, so k entries already determine the page
// exactly; the overfetch is pure safety margin for the deterministic
// doc-id tiebreak at the page boundary.
const topkOverfetch = PerPage

// boundPad and boundEps inflate pruning upper bounds so a bound that
// lands within float-rounding distance of the heap minimum is treated
// as potentially beating it (the candidate gets scored for real instead
// of pruned). Correctness never depends on the bound being tight —
// only on it never being low.
const (
	boundPad = 1 + 1e-9
	boundEps = 1e-12
)

// topkEntry is one heap slot: the fully-scored candidate.
type topkEntry struct {
	docID string
	score float64
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

// postingIter walks one term's sorted posting list in step with the
// ascending candidate stream.
type postingIter struct {
	docs []string
	pos  int
}

// advance moves the iterator to the first posting ≥ doc and reports
// whether the term posts for doc. Candidates arrive ascending, so each
// list is traversed once per query.
func (it *postingIter) advance(doc string) bool {
	d := it.docs
	if it.pos >= len(d) {
		return false
	}
	it.pos += sort.SearchStrings(d[it.pos:], doc)
	return it.pos < len(d) && d[it.pos] == doc
}

// topkScratch pools the per-query allocations of the top-k path: the
// heap backing array, the posting iterators, and the per-term bound
// tables.
type topkScratch struct {
	heap    topkHeap
	iters   []postingIter
	present []bool
	tfidfUB []float64
	rawUB   []float64
}

var topkPool = sync.Pool{New: func() any { return &topkScratch{} }}

// termSlot groups one query term with its synonym expansions; indexes
// point into the flat per-name iterator/bound tables.
type termSlot struct {
	primary int
	syns    []int
}

// runTopK executes the index-native scoring path over a sorted
// candidate id list. It returns served=false (without error) when the
// page cannot be produced from the index alone — currently only when a
// winner's document is missing from the batched fetch (its shard went
// dark after the shape gate passed, or it was deleted) — in which case
// the caller falls back to the pipeline path.
func (e *Engine) runTopK(
	ctx context.Context,
	candidates []string,
	terms []textproc.QueryTerm,
	rankFields map[string]bool,
	snippetFields []string,
	pageNum int,
) (Page, bool, error) {
	if err := ctx.Err(); err != nil {
		return Page{}, false, fmt.Errorf("search: topk: %w", err)
	}
	opts := *e.rankOpts.Load()

	// Flatten (term, synonyms…) into per-name posting snapshots and
	// per-name score upper-bound contributions.
	var names []string
	slots := make([]termSlot, 0, len(terms))
	for _, t := range terms {
		s := termSlot{primary: len(names)}
		names = append(names, t.Text)
		if !opts.NoSynonyms {
			for _, syn := range textproc.SynonymStems(t.Text) {
				s.syns = append(s.syns, len(names))
				names = append(names, syn)
			}
		}
		slots = append(slots, s)
	}
	snaps := e.idx.TermSnapshots(names)

	sc := topkPool.Get().(*topkScratch)
	defer func() {
		sc.heap.es = sc.heap.es[:0]
		sc.iters = sc.iters[:0]
		sc.present = sc.present[:0]
		sc.tfidfUB = sc.tfidfUB[:0]
		sc.rawUB = sc.rawUB[:0]
		topkPool.Put(sc)
	}()
	for i := range snaps {
		sc.iters = append(sc.iters, postingIter{docs: snaps[i].Docs})
		sc.present = append(sc.present, false)
		sc.tfidfUB = append(sc.tfidfUB, 0)
		sc.rawUB = append(sc.rawUB, 0)
	}

	// Per-name bound pieces mirror the score formula's weights: a name
	// present in a document contributes at most maxWTF·idf·w/10 to the
	// TF-IDF feature (weighted-TF maximum over any document holding the
	// term) and, for primary terms only, at most wMatches·maxRaw to the
	// match-count feature (synonym hits never increment the match
	// count). FlatFields swaps the weighted maximum for the raw one,
	// NoIDF pins idf at 1 — the same ablations e.score applies.
	idf := func(term string) float64 {
		if opts.NoIDF {
			return 1
		}
		return e.idx.IDF(term)
	}
	maxTF := func(s int) float64 {
		if opts.FlatFields {
			return float64(snaps[s].MaxRaw)
		}
		return snaps[s].MaxWTF
	}
	for _, s := range slots {
		sc.tfidfUB[s.primary] = maxTF(s.primary) * idf(names[s.primary]) * wTFIDF / 10
		sc.rawUB[s.primary] = wMatches * float64(snaps[s.primary].MaxRaw)
		for _, j := range s.syns {
			sc.tfidfUB[j] = maxTF(j) * idf(names[j]) * wSynonym / 10
		}
	}

	k := pageNum*PerPage + topkOverfetch
	sc.heap.k = k
	var pruned int64

	start := time.Now()
	for i, doc := range candidates {
		if i%pipeline.CancelCheckInterval == 0 && ctx.Err() != nil {
			return Page{}, false, fmt.Errorf("search: topk: %w", ctx.Err())
		}
		for j := range sc.iters {
			sc.present[j] = sc.iters[j].advance(doc)
		}
		if sc.heap.full() {
			// Max-score upper bound: sum the present names' TF-IDF caps,
			// the present primaries' match-count caps, perfect coverage
			// over the slots with any present name, the proximity
			// feature's maximum when ≥2 primaries co-occur, and the
			// document's static (recency) score.
			ub := e.idx.Static(doc)
			matchedSlots := 0
			primaries := 0
			for _, s := range slots {
				hit := false
				if sc.present[s.primary] {
					hit = true
					primaries++
					ub += sc.tfidfUB[s.primary] + sc.rawUB[s.primary]
				}
				for _, j := range s.syns {
					if sc.present[j] {
						hit = true
						ub += sc.tfidfUB[j]
					}
				}
				if hit {
					matchedSlots++
				}
			}
			if matchedSlots > 0 && !opts.NoCoverage {
				ub += wCoverage * float64(matchedSlots) / float64(len(terms))
			}
			if primaries >= 2 && !opts.NoProximity {
				ub += wProximity
			}
			if !sc.heap.beats(ub*boundPad+boundEps, doc) {
				pruned++
				continue
			}
		}
		// Survivor: score with the exact pipeline formula (same floats,
		// same order) so kept entries are bit-identical to the pipeline
		// path's scores.
		sc.heap.push(topkEntry{docID: doc, score: e.score(doc, nil, terms, rankFields).Total})
	}
	e.observeStage("topk", time.Since(start))
	if pruned > 0 {
		e.met.Counter("topk_pruned_docs").Add(pruned)
	}
	if err := ctx.Err(); err != nil {
		return Page{}, false, fmt.Errorf("search: topk: %w", err)
	}

	// Page math mirrors paginate exactly: Total counts every candidate,
	// NumPages ≥ 1, and a past-the-end page carries nil Results.
	total := len(candidates)
	numPages := (total + PerPage - 1) / PerPage
	if numPages < 1 {
		numPages = 1
	}
	page := Page{Total: total, PageNum: pageNum, PerPage: PerPage, NumPages: numPages}
	pstart := (pageNum - 1) * PerPage
	if pstart >= total {
		return page, true, nil
	}
	ranked := sc.heap.ranked()
	pend := pstart + PerPage
	if pend > len(ranked) {
		pend = len(ranked)
	}

	// Materialize only the winners, in one batched fetch. Any dark shard
	// or missing document (a shard darkened after the shape gate, a
	// concurrent delete) abandons the index path so the pipeline path
	// can degrade properly.
	start = time.Now()
	winners := ranked[pstart:pend]
	ids := make([]string, len(winners))
	for i, en := range winners {
		ids[i] = en.docID
	}
	docs, _, err := e.coll.GetMany(ctx, ids) // a dark shard's documents come back nil
	if err != nil {
		return Page{}, false, fmt.Errorf("search: topk: %w", err)
	}
	hl := textproc.CompileTerms(terms, false)
	results := make([]Result, 0, len(winners))
	for i, d := range docs {
		if d == nil {
			return Page{}, false, nil
		}
		r := resultFromDoc(d, winners[i].score)
		r.Snippets = appendSnippets(nil, d, snippetFields, hl)
		results = append(results, r)
	}
	e.observeStage("materialize", time.Since(start))
	page.Results = results
	return page, true, nil
}

// runQuery routes one query to the index-native top-k path when the
// shape allows it — an index-resolved candidate set needing no
// verification, index scoring enabled, and every shard serving — and
// otherwise (or when the top-k path bails mid-materialization) to the
// full pipeline path. Both paths produce identical pages for eligible
// shapes; the counters expose which path served each query.
func (e *Engine) runQuery(
	ctx context.Context,
	matchPred func(d jsondoc.Doc) bool,
	candidates []string,
	verifyCandidates bool,
	terms []textproc.QueryTerm,
	rankFields map[string]bool,
	snippetFields []string,
	pageNum int,
) (Page, error) {
	if candidates != nil && !verifyCandidates && e.IndexScoring() && e.coll.AllShardsServing() {
		pg, served, err := e.runTopK(ctx, candidates, terms, rankFields, snippetFields, pageNum)
		if err != nil {
			return Page{}, err
		}
		if served {
			e.met.Counter("index_path_queries").Inc()
			return pg, nil
		}
	}
	e.met.Counter("fallback_path_queries").Inc()
	return e.runSearch(ctx, matchPred, candidates, verifyCandidates, terms, rankFields, snippetFields, pageNum)
}
