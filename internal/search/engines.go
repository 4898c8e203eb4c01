package search

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/pipeline"
	"covidkg/internal/textproc"
)

// expandSynonyms widens a stemmed term list with the synonym table so a
// query for "vaccine" also retrieves "immunization" documents (§5: the
// ranking function recognizes synonymy).
func expandSynonyms(stems []string) []string {
	out := append([]string(nil), stems...)
	seen := map[string]bool{}
	for _, s := range stems {
		seen[s] = true
	}
	for _, s := range stems {
		for _, syn := range textproc.SynonymStems(s) {
			if !seen[syn] {
				seen[syn] = true
				out = append(out, syn)
			}
		}
	}
	return out
}

// candidateFetchBatch is how many ids resolveCandidates hands to one
// Docs.GetMany call. Against the networked coordinator each batch is
// coalesced into a single frame per shard, so the batch size bounds
// both the per-frame payload and how much fetch work one worker owns.
const candidateFetchBatch = 256

// resolveCandidates fetches candidate documents by id through batched
// Docs.GetMany calls, the batches partitioned across the worker pool —
// in process each Get deep-copies the document, over the network each
// batch collapses to one frame per shard, and both dominate candidate
// materialization on large result sets. Ids that vanished under a
// concurrent delete are skipped; input order is preserved. A batch
// touching a dark shard does not fail the query: the shard lands in
// the missing list and the query degrades to a partial result over the
// surviving shards (the shard's breakers make the remaining fetches
// fail fast). Each batch checks the context before it starts, and a
// dead context is returned as ctx.Err().
func (e *Engine) resolveCandidates(ctx context.Context, ids []string, workers int) ([]jsondoc.Doc, []int, error) {
	docs := make([]jsondoc.Doc, len(ids))
	nb := (len(ids) + candidateFetchBatch - 1) / candidateFetchBatch
	missAt := make([][]int, nb)
	pipeline.ParallelChunks(nb, workers, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			if ctx.Err() != nil {
				return
			}
			start := b * candidateFetchBatch
			end := start + candidateFetchBatch
			if end > len(ids) {
				end = len(ids)
			}
			bd, bm, err := e.coll.GetMany(ctx, ids[start:end])
			if err != nil {
				return // only a dead context; reported below
			}
			copy(docs[start:end], bd)
			missAt[b] = bm
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	seen := map[int]bool{}
	var missing []int
	for _, bm := range missAt {
		for _, si := range bm {
			if !seen[si] {
				seen[si] = true
				missing = append(missing, si)
			}
		}
	}
	sort.Ints(missing)
	out := docs[:0]
	for _, d := range docs {
		if d != nil {
			out = append(out, d)
		}
	}
	return out, missing, nil
}

// scatterScanIDs lists the whole collection's doc ids shard by shard,
// the shards raced in parallel through hedged replica id reads. Unlike
// the old full-document scatter scan this clones nothing — downstream
// stages fetch only the documents they actually need (resolveCandidates
// for the pipeline's match stage, page materialization for top-k). A
// shard whose every replica is unavailable is skipped and reported in
// missing rather than failing the scan. Context errors still abort the
// whole scan. The returned ids are globally sorted.
func (e *Engine) scatterScanIDs(ctx context.Context, workers int) ([]string, []int, error) {
	n := e.coll.NumShards()
	snaps := make([][]string, n)
	errs := make([]error, n)
	pipeline.ParallelChunks(n, workers, func(lo, hi int) {
		for si := lo; si < hi; si++ {
			snaps[si], errs[si] = e.coll.ShardIDsContext(ctx, si)
		}
	})
	var ids []string
	var missing []int
	for si := 0; si < n; si++ {
		switch err := errs[si]; {
		case err == nil:
			ids = append(ids, snaps[si]...)
		case errors.Is(err, docstore.ErrShardUnavailable):
			missing = append(missing, si)
		default:
			return nil, nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sort.Strings(ids)
	return ids, missing, nil
}

// phraseCandidates resolves a quoted phrase to the documents containing
// every content word of the phrase (a superset of the true phrase
// matches, which still need substring verification). ok is false when
// the phrase has no indexable words and only a full scan can answer it.
func (e *Engine) phraseCandidates(phrase string, fields map[string]bool) ([]string, bool) {
	words := textproc.ContentWords(phrase)
	if len(words) == 0 {
		return nil, false
	}
	// intersect per-word field-restricted doc sets
	var out []string
	for i, w := range words {
		ids := e.idx.DocsWithAnyInFields([]string{w}, fields)
		if i == 0 {
			out = ids
		} else {
			out = intersectSorted(out, ids)
		}
		if len(out) == 0 {
			return []string{}, true
		}
	}
	return out, true
}

// queryCandidates resolves the full query (bare terms by index lookup,
// quoted phrases by all-words intersection) into a candidate id list.
// verify reports whether the candidates still need the match predicate
// (true when any phrase term participated). ok is false when the index
// cannot answer and a full scan is required.
func (e *Engine) queryCandidates(terms []textproc.QueryTerm, fields map[string]bool) (ids []string, verify, ok bool) {
	set := map[string]struct{}{}
	for _, t := range terms {
		if t.Exact {
			pc, pok := e.phraseCandidates(t.Text, fields)
			if !pok {
				return nil, false, false
			}
			verify = true
			for _, id := range pc {
				set[id] = struct{}{}
			}
			continue
		}
		for _, id := range e.idx.DocsWithAnyInFields(expandSynonyms([]string{t.Text}), fields) {
			set[id] = struct{}{}
		}
	}
	ids = make([]string, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, verify, true
}

// runSearch executes the shared §2.1 evaluation process, scaled out over
// the engine's worker pool: a parallel $match stage filters candidates
// (order-preserving, so results match serial execution exactly), a
// $project keeps only fields later stages need, and a parallel custom
// $function stage computes the ranking score over partitioned documents.
// Sorting and pagination conclude the pipeline. Every stage's latency is
// recorded in the metrics registry.
//
// When candidates is non-nil the inverted index already resolved a
// candidate set and the pipeline starts from those documents (fetched in
// parallel partitions); verifyCandidates keeps the match predicate
// active over them (needed when quoted phrases require substring
// confirmation). A nil candidates list falls back to a full scan, which
// the parallel $match also partitions across workers.
func (e *Engine) runSearch(
	ctx context.Context,
	matchPred func(jsondoc.Doc) bool,
	candidates []string,
	verifyCandidates bool,
	terms []textproc.QueryTerm,
	rankFields map[string]bool,
	snippetFields []string,
	pageNum int,
) (Page, error) {
	workers := e.Workers()

	// materialize the input stream: an id-only scatter scan supplies the
	// candidate list when the index could not (the match predicate then
	// stays active over the fetched docs), and candidate partitions
	// resolve in parallel. Both paths abandon work when the request
	// context dies.
	start := time.Now()
	var scanMissing []int
	if candidates == nil {
		var err error
		candidates, scanMissing, err = e.scatterScanIDs(ctx, workers)
		if err != nil {
			return Page{}, fmt.Errorf("search: scan: %w", err)
		}
		verifyCandidates = true
	}
	buf, missing, err := e.resolveCandidates(ctx, candidates, workers)
	if err != nil {
		return Page{}, fmt.Errorf("search: fetch: %w", err)
	}
	missing = mergeMissing(scanMissing, missing)
	if !verifyCandidates {
		matchPred = func(jsondoc.Doc) bool { return true }
	}
	e.observeStage("fetch", time.Since(start))

	p := pipeline.New(
		pipeline.ParallelMatch(matchPred).Workers(workers),
		// $project: only the fields needed "for carrying out calculations
		// and printing to the screen" travel further down the pipeline.
		pipeline.Project("title", "abstract", "body_text", "authors",
			"journal", "publish_date", "tables", "figure_captions"),
		pipeline.ParallelFunction("rank", func(d jsondoc.Doc) (jsondoc.Doc, error) {
			ex := e.scoreDoc(d, terms, rankFields)
			if err := d.Set("score", ex.Total); err != nil {
				return nil, err
			}
			return d, nil
		}).Workers(workers),
		pipeline.SortByDesc("score"),
	).Observe(func(stage string, d time.Duration, in, out int) {
		e.observeStage(stageMetricName(stage), d)
	})
	docs, err := p.RunContext(ctx, pipeline.SliceSource(buf))
	if err != nil {
		return Page{}, err
	}

	results := make([]Result, 0, len(docs))
	byID := make(map[string]jsondoc.Doc, len(docs))
	for _, d := range docs {
		score, _ := d.GetNumber("score")
		r := resultFromDoc(d, score)
		byID[r.DocID] = d
		results = append(results, r)
	}
	sortResults(results)
	page := paginate(results, pageNum)
	if len(missing) > 0 {
		sort.Ints(missing)
		page.Partial = true
		page.MissingShards = missing
	}
	// snippets scan each snippet field's text once; only the page
	// actually returned pays for them
	start = time.Now()
	hl := textproc.CompileTerms(terms, false)
	for i := range page.Results {
		if ctx.Err() != nil {
			return Page{}, fmt.Errorf("search: snippets: %w", ctx.Err())
		}
		r := &page.Results[i]
		r.Snippets = appendSnippets(r.Snippets, byID[r.DocID], snippetFields, hl)
	}
	e.observeStage("snippet", time.Since(start))
	return page, nil
}

// observeStage records one named stage latency.
func (e *Engine) observeStage(stage string, d time.Duration) {
	e.met.Histogram("search.stage." + stage).Observe(d)
}

// stageMetricName maps pipeline stage names to stable metric suffixes.
func stageMetricName(stage string) string {
	switch {
	case strings.HasPrefix(stage, "$match"), stage == "$source+$match":
		return "match"
	case strings.HasPrefix(stage, "$function"):
		return "score"
	case stage == "$sort":
		return "sort"
	case stage == "$project":
		return "project"
	default:
		return strings.TrimPrefix(stage, "$")
	}
}

// clampPage normalizes a requested page number before it reaches the
// cache key or paginate, so page 0 and page 1 share one cache entry.
func clampPage(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// canonicalTerms renders parsed query terms into a stable cache-key
// fragment, so queries differing only in whitespace, case, or stopwords
// share a cache entry.
func canonicalTerms(terms []textproc.QueryTerm) string {
	var b strings.Builder
	for i, t := range terms {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		if t.Exact {
			b.WriteString("e:")
		} else {
			b.WriteString("s:")
		}
		b.WriteString(t.Text)
	}
	return b.String()
}

// queryScope derives the set of index terms whose writes can change the
// query's answer: the stemmed bare terms plus their synonym expansions
// (candidate generation looks exactly those up), and the content words
// of quoted phrases (phrase candidates intersect those posting lists).
// all reports an unbounded scope — a phrase with no content words falls
// back to a full scan, so any write can change its answer and the entry
// must be validated against the index's global write sequence instead.
func (e *Engine) queryScope(terms []textproc.QueryTerm) (scope []string, all bool) {
	seen := map[string]bool{}
	add := func(s string) {
		if s != "" && !seen[s] {
			seen[s] = true
			scope = append(scope, s)
		}
	}
	noSyn := e.RankOptions().NoSynonyms
	for _, t := range terms {
		if t.Exact {
			words := textproc.ContentWords(t.Text)
			if len(words) == 0 {
				all = true
				continue
			}
			for _, w := range words {
				add(w)
			}
			continue
		}
		add(t.Text)
		if !noSyn {
			for _, syn := range textproc.SynonymStems(t.Text) {
				add(syn)
			}
		}
	}
	return scope, all
}

// currentScope captures the invalidation fingerprint for a query at this
// instant: the engine's global generation plus the per-term index write
// generations of the query's scope (or the global write sequence when
// the scope is unbounded).
func (e *Engine) currentScope(terms []textproc.QueryTerm) cacheScope {
	sc := cacheScope{gen: e.gen.Load()}
	sc.terms, sc.all = e.queryScope(terms)
	if sc.all {
		sc.writeSeq = e.idx.WriteSeq()
	} else {
		sc.gens = e.idx.TermGens(sc.terms)
	}
	return sc
}

// cachedSearch funnels one engine's query through the query cache: a hit
// returns the cached page; a miss computes, then stores the page under
// the scope fingerprint captured *before* computing, so a concurrent
// write to any of the query's terms (or a removal/option change, which
// bump the global generation) invalidates it while writes to unrelated
// terms leave it warm. The deliberate staleness window: a new document
// shifts corpus-wide statistics (N in IDF) by one, and pages whose terms
// the document does not touch keep their pre-write scores until one of
// their own terms is written — bounded drift traded for a cache that
// survives a live ingest stream. Total latency per engine and cache
// hit/miss/eviction counts are recorded in the metrics registry.
//
// A compute abandoned by cancellation (or failed for any other reason)
// returns its error WITHOUT touching the cache — partial results from a
// dead request must never be served to a live one. Likewise a page
// degraded by a dark shard (Partial) is returned but never cached: the
// shard may recover the next instant, and a cached partial page would
// keep serving the hole until the entry went stale.
func (e *Engine) cachedSearch(ctx context.Context, engine, canon string, pageNum int, terms []textproc.QueryTerm, compute func(context.Context) (Page, error)) (Page, error) {
	start := time.Now()
	e.met.Counter("search.queries").Inc()
	cache := e.cache.Load()
	key := cacheKey{engine: engine, query: canon, page: pageNum}
	scope := e.currentScope(terms)
	if pg, ok := cache.get(key, scope); ok {
		e.met.Counter("search.cache.hits").Inc()
		e.met.Histogram("search.latency." + engine).Observe(time.Since(start))
		return pg, nil
	}
	e.met.Counter("search.cache.misses").Inc()
	pg, err := compute(ctx)
	if err != nil {
		return Page{}, err
	}
	// belt and braces: even if a compute path missed a cancellation, a
	// page produced under a dead context is not stored
	if pg.Partial {
		e.met.Counter("partial_responses").Inc()
	} else if ctx.Err() == nil {
		if ev := cache.put(key, pg, scope); ev > 0 {
			e.met.Counter("search.cache.evictions").Add(ev)
		}
	}
	e.met.Histogram("search.latency." + engine).Observe(time.Since(start))
	return pg, nil
}

// mergeMissing unions two dark-shard lists without duplicates (order is
// normalized later, when the page is marked partial).
func mergeMissing(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	seen := map[int]bool{}
	for _, si := range a {
		seen[si] = true
	}
	for _, si := range b {
		if !seen[si] {
			seen[si] = true
			a = append(a, si)
		}
	}
	return a
}

// intersectSorted intersects two sorted string slices.
func intersectSorted(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// anyTermInFields reports whether at least one query term matches any of
// the named fields of the document — the fallback's $match. Its matcher
// is compiled through the synonym table unless NoSynonyms is set
// (verifyMatcher; quoted phrases stay literal), keeping it consistent
// with candidate generation: a document admitted for "vaccine" via
// "immunization" (expandSynonyms) stays a hit when a quoted phrase
// forces re-verification.
func anyTermInFields(d jsondoc.Doc, m *textproc.TermMatcher, fields ...string) bool {
	for _, f := range fields {
		if anyFieldText(d, f, m.MatchText) {
			return true
		}
	}
	return false
}

func (e *Engine) verifyMatcher(terms []textproc.QueryTerm) *textproc.TermMatcher {
	return textproc.CompileTerms(terms, !e.RankOptions().NoSynonyms)
}

// appendSnippets excerpts every text of the snippet fields of d, in
// field order, around the query's matches.
func appendSnippets(dst []Snippet, d jsondoc.Doc, fields []string, hl *textproc.TermMatcher) []Snippet {
	for _, f := range fields {
		anyFieldText(d, f, func(txt string) bool {
			if sn, ok := makeSnippet(f, txt, hl); ok {
				dst = append(dst, sn)
			}
			return false // every text of the field
		})
	}
	return dst
}

// FieldQuery is the input of the title/abstract/caption engine: any
// subset of the three fields may carry a query.
type FieldQuery struct {
	Title    string
	Abstract string
	Caption  string
}

// SearchFields is engine §2.1.1 over a background context.
func (e *Engine) SearchFields(q FieldQuery, pageNum int) (Page, error) {
	return e.SearchFieldsContext(context.Background(), q, pageNum)
}

// SearchFieldsContext is engine §2.1.1 — search over paper title,
// abstract, and table captions. "The search fields are inclusive": every
// non-empty field must match at least one of its terms in that field, or
// the document is dropped regardless of other fields. Cancelling ctx
// abandons the query mid-pipeline; abandoned pages are never cached.
func (e *Engine) SearchFieldsContext(ctx context.Context, q FieldQuery, pageNum int) (Page, error) {
	type fieldTerm struct {
		field string
		terms []textproc.QueryTerm
	}
	var conds []fieldTerm
	var allTerms []textproc.QueryTerm
	add := func(field, query string) error {
		if query == "" {
			return nil
		}
		terms, err := queryOrError(query)
		if err != nil {
			return err
		}
		conds = append(conds, fieldTerm{field, terms})
		allTerms = append(allTerms, terms...)
		return nil
	}
	if err := add(FieldTitle, q.Title); err != nil {
		return Page{}, err
	}
	if err := add(FieldAbstract, q.Abstract); err != nil {
		return Page{}, err
	}
	if err := add(FieldTableCaption, q.Caption); err != nil {
		return Page{}, err
	}
	if len(conds) == 0 {
		return Page{}, fmt.Errorf("search: %w: all query fields empty", ErrBadQuery)
	}
	pageNum = clampPage(pageNum)

	var canon strings.Builder
	for i, c := range conds {
		if i > 0 {
			canon.WriteByte(0x1e)
		}
		canon.WriteString(c.field + "=" + canonicalTerms(c.terms))
	}
	return e.cachedSearch(ctx, "fields", canon.String(), pageNum, allTerms, func(ctx context.Context) (Page, error) {
		rankFields := map[string]bool{FieldTitle: true, FieldAbstract: true, FieldTableCaption: true}
		matchers := make([]*textproc.TermMatcher, len(conds))
		for i, c := range conds {
			matchers[i] = e.verifyMatcher(c.terms)
		}
		match := func(d jsondoc.Doc) bool {
			for i, c := range conds {
				if !anyTermInFields(d, matchers[i], c.field) {
					return false
				}
			}
			return true
		}
		// Inclusive semantics via the index: intersect per-field candidate
		// sets; quoted phrases keep the verification predicate active.
		start := time.Now()
		var candidates []string
		verify := false
		resolvable := true
		for i, c := range conds {
			ids, v, ok := e.queryCandidates(c.terms, map[string]bool{c.field: true})
			if !ok {
				resolvable = false
				break
			}
			verify = verify || v
			if i == 0 {
				candidates = ids
			} else {
				candidates = intersectSorted(candidates, ids)
			}
			if len(candidates) == 0 {
				candidates = []string{}
				break
			}
		}
		if !resolvable {
			candidates, verify = nil, false
		} else if verify && candidates == nil {
			candidates = []string{}
		}
		e.observeStage("candidates", time.Since(start))
		// Results format: "table captions first, the title and authors and
		// the full abstract" — snippet order encodes that.
		return e.runQuery(ctx, match, candidates, verify, allTerms, rankFields,
			[]string{FieldTableCaption, FieldTitle, FieldAbstract}, pageNum)
	})
}

// SearchAll is engine §2.1.2 over a background context.
func (e *Engine) SearchAll(query string, pageNum int) (Page, error) {
	return e.SearchAllContext(context.Background(), query, pageNum)
}

// SearchAllContext is engine §2.1.2 — search over all publication
// fields, for when "where the term is referenced is unimportant".
// Results carry excerpts from every matching field: abstract, body text,
// table captions, tables, and figure captions. Cancelling ctx abandons
// the query mid-pipeline; abandoned pages are never cached.
func (e *Engine) SearchAllContext(ctx context.Context, query string, pageNum int) (Page, error) {
	terms, err := queryOrError(query)
	if err != nil {
		return Page{}, err
	}
	pageNum = clampPage(pageNum)
	return e.cachedSearch(ctx, "all", canonicalTerms(terms), pageNum, terms, func(ctx context.Context) (Page, error) {
		vm := e.verifyMatcher(terms)
		match := func(d jsondoc.Doc) bool {
			return anyTermInFields(d, vm, allFields...)
		}
		start := time.Now()
		candidates, verify, ok := e.queryCandidates(terms, nil)
		e.observeStage("candidates", time.Since(start))
		if !ok {
			candidates, verify = nil, false
		}
		return e.runQuery(ctx, match, candidates, verify, terms, nil,
			[]string{FieldAbstract, FieldBody, FieldTableCaption, FieldTableCell, FieldFigureCaption},
			pageNum)
	})
}

// SearchTables is engine §2.1.3 over a background context.
func (e *Engine) SearchTables(query string, pageNum int) (Page, error) {
	return e.SearchTablesContext(context.Background(), query, pageNum)
}

// SearchTablesContext is engine §2.1.3 — search over paper tables only:
// "a product of regular expression search over table captions and all of
// the table's data". Ranked with the same weighted-feature function,
// restricted to table fields. Cancelling ctx abandons the query
// mid-pipeline; abandoned pages are never cached.
func (e *Engine) SearchTablesContext(ctx context.Context, query string, pageNum int) (Page, error) {
	terms, err := queryOrError(query)
	if err != nil {
		return Page{}, err
	}
	pageNum = clampPage(pageNum)
	return e.cachedSearch(ctx, "tables", canonicalTerms(terms), pageNum, terms, func(ctx context.Context) (Page, error) {
		tableFields := map[string]bool{FieldTableCaption: true, FieldTableCell: true}
		vm := e.verifyMatcher(terms)
		match := func(d jsondoc.Doc) bool {
			return anyTermInFields(d, vm, FieldTableCaption, FieldTableCell)
		}
		start := time.Now()
		candidates, verify, ok := e.queryCandidates(terms, tableFields)
		e.observeStage("candidates", time.Since(start))
		if !ok {
			candidates, verify = nil, false
		}
		// The table engine also shows where the terms land in the abstract
		// for context (Figure 4 shows an abstract match below the table).
		return e.runQuery(ctx, match, candidates, verify, terms, tableFields,
			[]string{FieldTableCaption, FieldTableCell, FieldAbstract}, pageNum)
	})
}

// CellMatch pinpoints where a query landed inside one stored table — the
// coordinates the Figure 4 interface paints red.
type CellMatch struct {
	TableIndex     int      // position within the publication's tables
	Caption        string   // the table's caption
	CaptionMatched bool     // the caption itself matched
	Cells          [][2]int // (row, col) of every matched cell
}

// TableCellMatches locates every matched caption and cell of a stored
// publication for the query, table by table, over a background context.
func (e *Engine) TableCellMatches(docID, query string) ([]CellMatch, error) {
	return e.TableCellMatchesContext(context.Background(), docID, query)
}

// TableCellMatchesContext is TableCellMatches under a request context:
// the per-table matching loop checks ctx between tables (a table is the
// unit of work — cell loops are short) and returns ctx.Err() when the
// caller is gone.
func (e *Engine) TableCellMatchesContext(ctx context.Context, docID, query string) ([]CellMatch, error) {
	terms, err := queryOrError(query)
	if err != nil {
		return nil, err
	}
	d, err := e.coll.Get(docID)
	if err != nil {
		return nil, err
	}
	m := textproc.CompileTerms(terms, false)
	var out []CellMatch
	for ti, tv := range d.GetArray("tables") {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("search: table matches: %w", ctx.Err())
		}
		tm, _ := tv.(map[string]any)
		if tm == nil {
			continue
		}
		td := jsondoc.Doc(tm)
		cm := CellMatch{TableIndex: ti, Caption: td.GetString("caption")}
		cm.CaptionMatched = m.MatchText(cm.Caption)
		for ri, rv := range td.GetArray("rows") {
			ra, _ := rv.([]any)
			for ci, cv := range ra {
				if s, ok := cv.(string); ok && m.MatchText(s) {
					cm.Cells = append(cm.Cells, [2]int{ri, ci})
				}
			}
		}
		if cm.CaptionMatched || len(cm.Cells) > 0 {
			out = append(out, cm)
		}
	}
	return out, nil
}

// MatchingTables returns, for one result document, the parsed tables that
// match the query — the expandable per-table view of Figure 4.
func (e *Engine) MatchingTables(docID, query string) ([]jsondoc.Doc, error) {
	terms, err := queryOrError(query)
	if err != nil {
		return nil, err
	}
	d, err := e.coll.Get(docID)
	if err != nil {
		return nil, err
	}
	m := textproc.CompileTerms(terms, false)
	var out []jsondoc.Doc
	for _, tv := range d.GetArray("tables") {
		tm, _ := tv.(map[string]any)
		if tm == nil {
			continue
		}
		td := jsondoc.Doc(tm)
		text := td.GetString("caption")
		for _, rv := range td.GetArray("rows") {
			ra, _ := rv.([]any)
			for _, cv := range ra {
				if s, ok := cv.(string); ok {
					text += " " + s
				}
			}
		}
		if m.MatchText(text) {
			out = append(out, td)
		}
	}
	return out, nil
}
