// Package search implements COVIDKG's three advanced search engines
// (§2.1): search over title/abstract/caption, search over all
// publication fields, and search over paper tables. All three share one
// evaluation process (runQuery) — candidates from the inverted index,
// a match predicate over stemmed terms and quoted phrases, one weighted-
// feature scorer, a bounded top-k heap — and differ only in which fields
// they match and how results are formatted, exactly as the paper
// describes. The paper runs that process as a MongoDB aggregation
// pipeline ($match first, then $project and a custom $function); that
// form, and its $match-first claim, are reproduced by internal/pipeline
// behind POST /api/v1/aggregate and experiment E3, not here.
package search

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"covidkg/internal/docstore"
	"covidkg/internal/index"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
	"covidkg/internal/textproc"
)

// ErrBadQuery marks user-input errors (empty or unsearchable queries).
// API layers use it to distinguish 400-class mistakes from internal
// failures.
var ErrBadQuery = errors.New("bad query")

// ErrBadDoc marks structurally invalid ingest documents (for now: a
// present-but-unusable _id). It wraps ErrBadQuery so API layers map it
// to the same 400 envelope without a second error taxonomy.
var ErrBadDoc = fmt.Errorf("%w: bad document", ErrBadQuery)

// Field names used for indexing and ranking.
const (
	FieldTitle         = "title"
	FieldAbstract      = "abstract"
	FieldBody          = "body"
	FieldTableCaption  = "table_caption"
	FieldTableCell     = "table_cell"
	FieldFigureCaption = "figure_caption"
)

// PerPage is the pagination unit: "the results are paginated as a list
// of ten per page" (§2.1).
const PerPage = 10

// Engine ties a publication collection to its inverted index and hosts
// the three search entry points. Queries run concurrently: reading and
// scoring candidate documents fans out over GOMAXPROCS workers, and
// computed pages are held, as encoded response bodies, in a
// generation-versioned LRU so repeated queries skip ranking and encoding
// entirely. All methods are safe for concurrent use.
type Engine struct {
	coll docstore.Docs
	idx  *index.Index

	// rankOpts is copy-on-set so concurrent queries never observe a
	// torn options struct.
	rankOpts atomic.Pointer[RankOptions]
	// gen is bumped by global invalidations (removal, option changes);
	// cache entries carry it plus per-term index write generations, so a
	// removal or option flip stales every cached page while an ingest
	// stales only pages whose query terms the new document touched.
	gen   atomic.Uint64
	cache atomic.Pointer[queryCache]
	met   *metrics.Registry
}

// NewEngine builds a search engine that indexes every document of coll.
func NewEngine(coll docstore.Docs) *Engine { return NewEngineFrom(coll, nil) }

// NewEngineFrom builds a search engine over coll, any docstore.Docs,
// around ix (nil: a new, empty index). It indexes, in scan order, every
// document ix lacks and, if the scan read every shard, removes from ix
// every id the scan did not see.
func NewEngineFrom(coll docstore.Docs, ix *index.Index) *Engine {
	if ix == nil {
		ix = index.New()
		ix.SetFieldWeights(fieldWeights)
	}
	e := &Engine{coll: coll, idx: ix, met: metrics.Default()}
	e.rankOpts.Store(&RankOptions{})
	e.cache.Store(newQueryCache(defaultCacheEntries, defaultCacheBytes))
	unseen := ix.LiveIDs()
	// NewEngineFrom has no error result, so a shard dark at boot leaves
	// its documents unindexed, and removes nothing.
	err := coll.ScanContext(context.Background(), func(d jsondoc.Doc) bool {
		if id, _ := d[docstore.IDField].(string); unseen[id] {
			delete(unseen, id)
		} else if id != "" {
			ix.AddDoc(id, index.Analyze(docTexts(d)), recencyOf(d))
		} else { // a malformed pre-seeded document: unindexed, but counted
			e.met.Counter("index.skipped_no_id").Inc()
		}
		return true
	})
	if err == nil {
		for id := range unseen {
			ix.Remove(id)
		}
	}
	return e
}

// ScoringStats reports, for the metrics endpoint, how many queries read
// candidates' documents before ranking — in total and by reason: a quoted
// phrase its words were adjacent for, an id scan, a shard not serving, or
// a winner that vanished after an index-only ranking — how many documents
// they read, and how many candidates the top-k bound pruned unscored.
func (e *Engine) ScoringStats() map[string]int64 {
	out := map[string]int64{}
	for _, name := range []string{"candidate_read_queries", "candidate_read.phrase", "candidate_read.scan",
		"candidate_read.dark_shard", "candidate_read.retry", "candidate_read_docs", "topk_pruned_docs"} {
		out[name] = e.met.Counter(name).Value()
	}
	return out
}

// Index returns the engine's inverted index (read-mostly; exposed for
// ranking diagnostics and experiments).
func (e *Engine) Index() *index.Index { return e.idx }

// SetMetrics redirects the engine's counters and histograms to reg
// instead of the process-default registry. Call it right after
// NewEngine, before the engine serves queries — the registry pointer is
// not synchronized against in-flight requests.
func (e *Engine) SetMetrics(reg *metrics.Registry) {
	if reg != nil {
		e.met = reg
	}
}

// SetCacheLimits replaces the query cache with one bounded by maxItems
// entries and maxBytes of encoded response bodies. Non-positive limits disable
// caching. The previous cache's contents are discarded.
func (e *Engine) SetCacheLimits(maxItems int, maxBytes int64) {
	e.cache.Store(newQueryCache(maxItems, maxBytes))
}

// CacheStats reports query-cache hit/miss/eviction counters and current
// occupancy.
func (e *Engine) CacheStats() CacheStats { return e.cache.Load().stats() }

// Generation returns the current global invalidation generation; it
// increases on every document removal and every option change. Document
// ingest does not bump it — ingest invalidates cached pages through the
// index's per-term write generations instead, so unrelated pages stay
// warm under a live writer.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// invalidate bumps the generation, atomically staling every cached page.
func (e *Engine) invalidate() { e.gen.Add(1) }

// insertConcurrency bounds the store inserts one AddDocuments batch
// keeps in flight. Against the networked tier each insert is a round
// trip ending in a WAL fsync; in flight together they pipeline over the
// coordinator's multiplexed connections and share group commits on the
// shard, so a batch pays a few fsyncs per shard instead of one per
// document.
const insertConcurrency = 32

// Added is the outcome of one document of an AddDocuments batch: the
// stored (normalized, id-bearing) document, or the reason it was not
// stored.
type Added struct {
	ID  string
	Doc jsondoc.Doc
	Err error
}

// AddDocument inserts one publication document; see AddDocuments.
func (e *Engine) AddDocument(d jsondoc.Doc) (string, error) {
	a := e.AddDocuments([]jsondoc.Doc{d})[0]
	return a.ID, a.Err
}

// AddDocuments inserts publication documents into the collection and
// the index; the result is aligned with docs, and one document's
// failure does not stop the others. Documents must follow the corpus
// shape (title, abstract, body_text, tables, figure_captions). A missing
// or empty _id means the store assigns one; a non-string _id is
// rejected with ErrBadDoc before anything is stored — such documents
// were once inserted but silently never indexed, permanently invisible
// to search.
//
// Store inserts run concurrently (insertConcurrency at a time), except
// that documents sharing an explicit _id are inserted one after another
// in batch order, so the first wins and the rest are ErrDuplicateID
// however the batch is scheduled. The worker that stored a document
// also analyses it (index.Analyze), overlapping the other inserts' round
// trips; the calling goroutine then applies the analyses with
// Index.AddDoc in batch order as inserts are acknowledged, so posting
// order and the seal boundary do not depend on scheduling. That ordered
// loop, waits included, is the ingest.index histogram.
func (e *Engine) AddDocuments(docs []jsondoc.Doc) []Added {
	out := make([]Added, len(docs))
	done := make([]chan struct{}, len(docs))
	// chains are the units of insert work: the batch positions sharing
	// one explicit id (in batch order), or a single position.
	var chains [][]int
	chainOf := map[string]int{}
	for i, d := range docs {
		done[i] = make(chan struct{})
		if v, present := d[docstore.IDField]; present {
			if _, ok := v.(string); !ok {
				out[i].Err = fmt.Errorf("%w: %s must be a string, got %T(%v)",
					ErrBadDoc, docstore.IDField, v, v)
				close(done[i])
				continue
			}
		}
		out[i].Doc = jsondoc.NormalizeDoc(d)
		if id, _ := out[i].Doc[docstore.IDField].(string); id != "" {
			if c, dup := chainOf[id]; dup {
				chains[c] = append(chains[c], i)
				continue
			}
			chainOf[id] = len(chains)
		}
		chains = append(chains, []int{i})
	}

	work := make(chan []int, len(chains)) // filled before the workers start
	for _, c := range chains {
		work <- c
	}
	close(work)
	analyzed := make([]*index.Analyzed, len(docs))
	for w := 0; w < min(insertConcurrency, len(chains)); w++ {
		go func() {
			for c := range work {
				for _, i := range c {
					// Index from the insert result rather than re-reading
					// the store: a post-insert Get can fail (shard breaker
					// opening between the two calls) which used to leave
					// the document stored but never indexed.
					out[i].ID, out[i].Err = e.coll.Insert(out[i].Doc)
					if out[i].Err == nil {
						out[i].Doc[docstore.IDField] = out[i].ID
						analyzed[i] = index.Analyze(docTexts(out[i].Doc))
					}
					close(done[i])
				}
			}
		}()
	}

	start := time.Now()
	for i := range out {
		<-done[i]
		if out[i].Err != nil {
			out[i].Doc = nil
			continue
		}
		// the static (recency) score too, so ranking from postings never reads the document
		e.idx.AddDoc(out[i].ID, analyzed[i], recencyOf(out[i].Doc))
	}
	e.met.Histogram("ingest.index").Observe(time.Since(start))
	return out
}

// RemoveDocument deletes a publication from collection and index.
func (e *Engine) RemoveDocument(id string) error {
	if err := e.coll.Delete(id); err != nil {
		return err
	}
	e.idx.Remove(id)
	e.invalidate()
	return nil
}

// docTexts lists the texts of a stored publication that the index
// holds, in indexing order: title, abstract, body, each table's caption
// and then its cells, the figure captions.
func docTexts(d jsondoc.Doc) []index.FieldText {
	texts := []index.FieldText{
		{Field: FieldTitle, Text: d.GetString("title")},
		{Field: FieldAbstract, Text: d.GetString("abstract")},
		{Field: FieldBody, Text: d.GetString("body_text")},
	}
	for _, tv := range d.GetArray("tables") {
		tm, _ := tv.(map[string]any)
		if tm == nil {
			continue
		}
		td := jsondoc.Doc(tm)
		texts = append(texts, index.FieldText{Field: FieldTableCaption, Text: td.GetString("caption")})
		for _, rv := range td.GetArray("rows") {
			ra, _ := rv.([]any)
			for _, cv := range ra {
				if s, ok := cv.(string); ok {
					texts = append(texts, index.FieldText{Field: FieldTableCell, Text: s})
				}
			}
		}
	}
	for _, fv := range d.GetArray("figure_captions") {
		if s, ok := fv.(string); ok {
			texts = append(texts, index.FieldText{Field: FieldFigureCaption, Text: s})
		}
	}
	return texts
}

// allFields lists every logical field of a stored publication.
var allFields = []string{FieldTitle, FieldAbstract, FieldBody,
	FieldTableCaption, FieldTableCell, FieldFigureCaption}

// anyFieldText calls fn with each raw text of one logical field of a
// stored publication, used for matching and snippets, until fn returns
// true, and reports whether it did. Only the requested field is built:
// a table's cells are joined (one text per table) only when
// FieldTableCell is asked for.
func anyFieldText(d jsondoc.Doc, field string, fn func(string) bool) bool {
	switch field {
	case FieldTitle:
		return fn(d.GetString("title"))
	case FieldAbstract:
		return fn(d.GetString("abstract"))
	case FieldBody:
		return fn(d.GetString("body_text"))
	case FieldFigureCaption:
		for _, fv := range d.GetArray("figure_captions") {
			if s, ok := fv.(string); ok && fn(s) {
				return true
			}
		}
	case FieldTableCaption, FieldTableCell:
		for _, tv := range d.GetArray("tables") {
			tm, _ := tv.(map[string]any)
			if tm == nil {
				continue
			}
			td := jsondoc.Doc(tm)
			if field == FieldTableCaption {
				if fn(td.GetString("caption")) {
					return true
				}
				continue
			}
			var buf [32]string // most tables' cells fit the stack
			cells := buf[:0]
			for _, rv := range td.GetArray("rows") {
				ra, _ := rv.([]any)
				for _, cv := range ra {
					if s, ok := cv.(string); ok && s != "" {
						cells = append(cells, s)
					}
				}
			}
			if fn(strings.Join(cells, " | ")) {
				return true
			}
		}
	}
	return false
}

// Result is one ranked search hit.
type Result struct {
	DocID    string
	Score    float64
	Title    string
	Authors  []string
	Journal  string
	Snippets []Snippet
}

// Snippet is an excerpt of one field with highlight spans (byte offsets
// into Text) for the matched terms — the front-end paints these red.
type Snippet struct {
	Field      string
	Text       string
	Highlights [][2]int
}

// Page is one page of results plus pagination bookkeeping. Partial
// marks a degraded response: one or more shards were unavailable, so
// Results covers only the surviving shards and Total undercounts.
// MissingShards lists the dark shards so clients (and the API's
// X-Partial-Results header) can surface what is missing. Partial pages
// are never cached.
type Page struct {
	Results       []Result
	Total         int // total matching documents across all pages
	PageNum       int // 1-based
	PerPage       int
	NumPages      int
	Partial       bool  `json:"partial"`
	MissingShards []int `json:"missing_shards,omitempty"`
}

// resultFromDoc builds the result skeleton (identity fields) from a
// stored publication.
func resultFromDoc(d jsondoc.Doc, score float64) Result {
	var authors []string
	for _, a := range d.GetArray("authors") {
		if s, ok := a.(string); ok {
			authors = append(authors, s)
		}
	}
	return Result{
		DocID:   d.GetString("_id"),
		Score:   score,
		Title:   d.GetString("title"),
		Authors: authors,
		Journal: d.GetString("journal"),
	}
}

// queryOrError parses the query and rejects empty ones.
func queryOrError(q string) ([]textproc.QueryTerm, error) {
	terms := dedupeTerms(textproc.ParseQuery(q))
	if len(terms) == 0 {
		return nil, fmt.Errorf("search: %w: query %q has no searchable terms", ErrBadQuery, q)
	}
	return terms, nil
}

// dedupeTerms drops repeated stems and repeated phrases in place, keeping
// first occurrences. A query is a set of terms: said twice, a word would
// count double in TF-IDF and matches and be its own proximity partner.
func dedupeTerms(terms []textproc.QueryTerm) []textproc.QueryTerm {
	out := terms[:0]
	for _, t := range terms {
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out
}
