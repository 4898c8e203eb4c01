package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"covidkg/internal/docstore"
	"covidkg/internal/index"
	"covidkg/internal/jsondoc"
	"covidkg/internal/pipeline"
	"covidkg/internal/textproc"
)

// candidateFetchBatch is how many ids resolveCandidates hands to one
// Docs.GetMany call. Against the networked coordinator each batch is
// coalesced into a single frame per shard, so the batch size bounds
// both the per-frame payload and how much fetch work one worker owns.
const candidateFetchBatch = 256

// resolveCandidates fetches candidate documents by id through batched
// Docs.GetMany calls, the batches partitioned across GOMAXPROCS workers
// — in process each Get deep-copies the document, over the network each
// batch collapses to one frame per shard, and both dominate candidate
// materialization on large result sets. docs aligns with ids; an id that
// vanished under a concurrent delete, or whose shard is dark, is nil. A
// batch touching a dark shard does not fail the query: the shard lands
// in the missing list (sorted) and the query degrades to a partial
// result over the surviving shards (the shard's breakers make the
// remaining fetches fail fast). Each batch checks the context before it
// starts, and a dead context is returned as ctx.Err().
func (e *Engine) resolveCandidates(ctx context.Context, ids []string) ([]jsondoc.Doc, []int, error) {
	docs := make([]jsondoc.Doc, len(ids))
	nb := (len(ids) + candidateFetchBatch - 1) / candidateFetchBatch
	missAt := make([][]int, nb)
	pipeline.ParallelChunks(nb, runtime.GOMAXPROCS(0), func(lo, hi int) {
		for b := lo; b < hi; b++ {
			if ctx.Err() != nil {
				return
			}
			start := b * candidateFetchBatch
			end := min(start+candidateFetchBatch, len(ids))
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
	var missing []int
	for _, bm := range missAt {
		missing = mergeMissing(missing, bm)
	}
	return docs, missing, nil
}

// scatterScanIDs lists the whole collection's doc ids shard by shard,
// the shards read in parallel. Unlike a full-document scatter scan this
// clones nothing. A dark shard is skipped and reported in missing
// rather than failing the scan. Context errors still abort the whole
// scan. The returned ids are globally sorted.
func (e *Engine) scatterScanIDs(ctx context.Context) ([]string, []int, error) {
	n := e.coll.NumShards()
	snaps := make([][]string, n)
	errs := make([]error, n)
	pipeline.ParallelChunks(n, runtime.GOMAXPROCS(0), func(lo, hi int) {
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

// clause is one term list a candidate must satisfy inside fields (nil =
// any field): some bare term — or a synonym of it — occurs there, or the
// postings allow some phrase there (ranker.phraseIn). That is a superset
// of the phrase's true matches; the match predicate confirms exactly
// those candidates against the stored text (ranker.needsText).
type clause struct {
	fields  map[string]bool
	terms   []int   // cursor names of the bare terms: one of them in fields suffices
	syns    []int   // or one of their synonyms
	phrases [][]int // or the content words of one of these, adjacent in one field
}

// clause compiles terms (some of the ranker's own, so every name is
// already on the cursor) for candidate resolution. Synonyms widen the
// candidates under every ablation: NoSynonyms only stops them scoring.
func (r *ranker) clause(terms []textproc.QueryTerm, fields map[string]bool) clause {
	c := clause{fields: fields}
	for _, t := range terms {
		if t.Exact {
			c.phrases = append(c.phrases, r.slots[slices.Index(r.terms, t)].words)
			continue
		}
		c.terms = append(c.terms, r.name(t.Text))
		for _, syn := range textproc.SynonymStems(t.Text) {
			c.syns = append(c.syns, r.name(syn))
		}
	}
	return c
}

// in reports whether name i occurs inside fields of the cursor's document.
func (r *ranker) in(i int, fields map[string]bool) bool {
	if fields == nil {
		return r.cur.Has(i)
	}
	return slices.ContainsFunc(r.cur.Runs(i), func(run index.Run) bool { return fields[run.Field] })
}

// holds reports whether the cursor's document satisfies the clause.
func (r *ranker) holds(c clause) bool {
	in := func(i int) bool { return r.in(i, c.fields) }
	return slices.ContainsFunc(c.terms, in) || slices.ContainsFunc(c.syns, in) ||
		slices.ContainsFunc(c.phrases, func(words []int) bool { return r.phraseIn(words, c.fields) })
}

// needsText reports whether ranking the cursor's document — a candidate
// of a query with a quoted phrase — takes its stored text. It does when
// its postings allow a phrase in a ranked field: only the text says
// whether the phrase is there, to the match predicate and to the score.
// And when NoSynonyms is set and some clause admitted it through a synonym
// alone, which the predicate then does not accept. Every other candidate
// satisfied each clause through a bare term's own posting (or a synonym's,
// while they count) — a token of that field the predicate accepts as well
// — and no phrase can credit it: it is a hit and scores the same unread.
func (r *ranker) needsText(clauses []clause) bool {
	for _, s := range r.slots {
		if s.primary < 0 && r.phraseIn(s.words, r.fields) {
			return true
		}
	}
	return r.opts.NoSynonyms && slices.ContainsFunc(clauses, func(c clause) bool {
		return !slices.ContainsFunc(c.terms, func(i int) bool { return r.in(i, c.fields) })
	})
}

// candidates merges the cursor's sorted posting lists once, document at
// a time, keeping the ids that satisfy every clause — and, of a query
// with a quoted phrase, which of them need their text read (needsText).
func (r *ranker) candidates(clauses []clause, phrase bool) (ids, needText []string) {
	ids = make([]string, 0, r.cur.MaxDocs())
docs:
	for doc, ok := r.cur.Next(); ok; doc, ok = r.cur.Next() {
		for _, c := range clauses {
			if !r.holds(c) {
				continue docs
			}
		}
		ids = append(ids, doc)
		if phrase && r.needsText(clauses) {
			needText = append(needText, doc)
		}
	}
	return ids, needText
}

// observeStage records one named stage latency.
func (e *Engine) observeStage(stage string, d time.Duration) {
	e.met.Histogram("search.stage." + stage).Observe(d)
}

// clampPage normalizes a requested page number before it reaches the
// cache key or the page math, so page 0 and page 1 share one cache entry.
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

// mergeMissing unions two dark-shard lists into one sorted list without
// duplicates.
func mergeMissing(a, b []int) []int {
	for _, si := range b {
		if !slices.Contains(a, si) {
			a = append(a, si)
		}
	}
	sort.Ints(a)
	return a
}

// anyTermInFields reports whether at least one query term matches any of
// the named fields of the document — the engines' match predicate. Its matcher
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

// fieldTerms is one non-empty field of a FieldQuery, parsed.
type fieldTerms struct {
	field string
	terms []textproc.QueryTerm
}

// parseFieldQuery parses every non-empty field of q; allTerms is their
// concatenation in field order, each distinct term once.
func parseFieldQuery(q FieldQuery) (conds []fieldTerms, allTerms []textproc.QueryTerm, _ error) {
	for _, f := range [][2]string{
		{FieldTitle, q.Title}, {FieldAbstract, q.Abstract}, {FieldTableCaption, q.Caption},
	} {
		if f[1] == "" {
			continue
		}
		terms, err := queryOrError(f[1])
		if err != nil {
			return nil, nil, err
		}
		conds = append(conds, fieldTerms{f[0], terms})
		allTerms = dedupeTerms(append(allTerms, terms...))
	}
	if len(conds) == 0 {
		return nil, nil, fmt.Errorf("search: %w: all query fields empty", ErrBadQuery)
	}
	return conds, allTerms, nil
}

// SearchFieldsContext is engine §2.1.1 — search over paper title,
// abstract, and table captions. "The search fields are inclusive": every
// non-empty field must match at least one of its terms in that field, or
// the document is dropped regardless of other fields. Cancelling ctx
// abandons the query mid-ranking; abandoned pages are never cached.
func (e *Engine) SearchFieldsContext(ctx context.Context, q FieldQuery, pageNum int) (Page, error) {
	conds, allTerms, err := parseFieldQuery(q)
	if err != nil {
		return Page{}, err
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
		return e.runQuery(ctx, e.fieldsPlan(conds, allTerms), false, pageNum)
	})
}

// fieldsPlan resolves the fields engine's per-field conditions.
func (e *Engine) fieldsPlan(conds []fieldTerms, allTerms []textproc.QueryTerm) plan {
	matchers := make([]*textproc.TermMatcher, len(conds))
	for i, c := range conds {
		matchers[i] = e.verifyMatcher(c.terms)
	}
	q := plan{
		match: func(d jsondoc.Doc) bool {
			for i, c := range conds {
				if !anyTermInFields(d, matchers[i], c.field) {
					return false
				}
			}
			return true
		},
		// Results format: "table captions first, the title and authors and
		// the full abstract" — snippet order encodes that.
		snippetFields: []string{FieldTableCaption, FieldTitle, FieldAbstract},
	}
	// Inclusive semantics via the index: a candidate satisfies every
	// field's clause; quoted phrases keep the verification predicate
	// active.
	start := time.Now()
	defer func() { e.observeStage("candidates", time.Since(start)) }()
	q.rank = e.newRanker(allTerms, map[string]bool{FieldTitle: true, FieldAbstract: true, FieldTableCaption: true})
	if q.rank.scan {
		return q // unresolvable: nil candidates
	}
	clauses := make([]clause, len(conds))
	for i, c := range conds {
		clauses[i] = q.rank.clause(c.terms, map[string]bool{c.field: true})
		q.verify = q.verify || len(clauses[i].phrases) > 0
	}
	q.candidates, q.needText = q.rank.candidates(clauses, q.verify)
	return q
}

// SearchAll is engine §2.1.2 over a background context.
func (e *Engine) SearchAll(query string, pageNum int) (Page, error) {
	return e.SearchAllContext(context.Background(), query, pageNum)
}

// SearchAllContext is engine §2.1.2 — search over all publication
// fields, for when "where the term is referenced is unimportant".
// Results carry excerpts from every matching field: abstract, body text,
// table captions, tables, and figure captions. Cancelling ctx abandons
// the query mid-ranking; abandoned pages are never cached.
func (e *Engine) SearchAllContext(ctx context.Context, query string, pageNum int) (Page, error) {
	terms, err := queryOrError(query)
	if err != nil {
		return Page{}, err
	}
	pageNum = clampPage(pageNum)
	return e.cachedSearch(ctx, "all", canonicalTerms(terms), pageNum, terms, func(ctx context.Context) (Page, error) {
		return e.runQuery(ctx, e.allPlan(terms), false, pageNum)
	})
}

func (e *Engine) allPlan(terms []textproc.QueryTerm) plan {
	return e.termsPlan(terms, nil, allFields,
		[]string{FieldAbstract, FieldBody, FieldTableCaption, FieldTableCell, FieldFigureCaption})
}

// termsPlan resolves one term list, matched over matchFields and ranked
// over rankFields (nil = every field).
func (e *Engine) termsPlan(terms []textproc.QueryTerm, rankFields map[string]bool, matchFields, snippetFields []string) plan {
	vm := e.verifyMatcher(terms)
	q := plan{
		match:         func(d jsondoc.Doc) bool { return anyTermInFields(d, vm, matchFields...) },
		snippetFields: snippetFields,
	}
	start := time.Now()
	q.rank = e.newRanker(terms, rankFields)
	if !q.rank.scan { // else unresolvable: nil candidates
		c := q.rank.clause(terms, rankFields)
		q.verify = len(c.phrases) > 0
		q.candidates, q.needText = q.rank.candidates([]clause{c}, q.verify)
	}
	e.observeStage("candidates", time.Since(start))
	return q
}

// SearchTables is engine §2.1.3 over a background context.
func (e *Engine) SearchTables(query string, pageNum int) (Page, error) {
	return e.SearchTablesContext(context.Background(), query, pageNum)
}

// SearchTablesContext is engine §2.1.3 — search over paper tables only:
// "a product of regular expression search over table captions and all of
// the table's data". Ranked with the same weighted-feature function,
// restricted to table fields. Cancelling ctx abandons the query
// mid-ranking; abandoned pages are never cached.
func (e *Engine) SearchTablesContext(ctx context.Context, query string, pageNum int) (Page, error) {
	terms, err := queryOrError(query)
	if err != nil {
		return Page{}, err
	}
	pageNum = clampPage(pageNum)
	return e.cachedSearch(ctx, "tables", canonicalTerms(terms), pageNum, terms, func(ctx context.Context) (Page, error) {
		return e.runQuery(ctx, e.tablesPlan(terms), false, pageNum)
	})
}

func (e *Engine) tablesPlan(terms []textproc.QueryTerm) plan {
	// The table engine also shows where the terms land in the abstract
	// for context (Figure 4 shows an abstract match below the table).
	return e.termsPlan(terms, map[string]bool{FieldTableCaption: true, FieldTableCell: true},
		[]string{FieldTableCaption, FieldTableCell},
		[]string{FieldTableCaption, FieldTableCell, FieldAbstract})
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
