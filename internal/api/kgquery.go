package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"covidkg/internal/kg"
	"covidkg/internal/kgquery"
)

// KG read-surface pagination defaults, shared by /kg/nodes children
// expansion, /kg/search, and /kg/query path pages.
const (
	kgDefaultPageSize = 20
	kgMaxPageSize     = 100
	// kgQueryResultCap bounds how many paths one query may match
	// server-side; pagination then windows this ranked set.
	kgQueryResultCap = 1000
	// kgHypothesesCap bounds ranked hypothesis paths per request.
	kgHypothesesCap = 100
	// kgMaxBodyBytes bounds a /kg/query or /kg/hypotheses request body.
	kgMaxBodyBytes = 1 << 20
)

// pageEnv is the pagination envelope, field-compatible with the
// publication search page (search.Page): Results/Total/PageNum/
// PerPage/NumPages, so clients paginate every list the same way.
type pageEnv[T any] struct {
	Results  []T
	Total    int
	PageNum  int
	PerPage  int
	NumPages int
}

// paginateSlice pages an in-memory result set into the envelope. An
// empty set still has one (empty) page; an out-of-range page returns
// empty Results with the true Total so clients can re-aim. NumPages
// comes first so that a page past the end — however large the number —
// is answered before anything is multiplied by it.
func paginateSlice[T any](all []T, page, size int) pageEnv[T] {
	total := len(all)
	numPages := max((total+size-1)/size, 1)
	lo, hi := total, total
	if page <= numPages {
		lo = (page - 1) * size
		hi = min(lo+size, total)
	}
	out := make([]T, hi-lo)
	copy(out, all[lo:hi])
	return pageEnv[T]{Results: out, Total: total, PageNum: page, PerPage: size, NumPages: numPages}
}

// pageParams reads page/page_size query parameters with clamping.
func pageParams(q url.Values) (page, size int) {
	page, _ = strconv.Atoi(q.Get("page"))
	size, _ = strconv.Atoi(q.Get("page_size"))
	return clampPage(page, size)
}

// clampPage applies the KG read surface's defaults and page-size cap.
func clampPage(page, size int) (int, int) {
	if page < 1 {
		page = 1
	}
	if size < 1 {
		size = kgDefaultPageSize
	}
	return page, min(size, kgMaxPageSize)
}

// writeKGErr maps knowledge-graph errors onto the uniform envelope: an
// unknown node or concept is 404 not_found, a malformed query is 400
// bad_query (with the parse offset attached), and a dead context gets
// the lifecycle statuses — never a blanket 500 internal.
func writeKGErr(w http.ResponseWriter, r *http.Request, err error, fallback int) {
	var pe *kgquery.ParseError
	switch {
	case errors.Is(err, kg.ErrNodeNotFound):
		writeErr(w, r, http.StatusNotFound, err)
	case errors.As(err, &pe):
		writeErr(w, r, http.StatusBadRequest, err)
	default:
		writeErr(w, r, failStatus(err, fallback), err)
	}
}

// handleKGNodes is the node resource:
//
//	GET /api/v1/kg/nodes/{id}?expand=children&page=&page_size=
//
// Without expand it answers the node plus its root path;
// expand=children embeds one page of children in the standard envelope.
func (s *Server) handleKGNodes(w http.ResponseWriter, r *http.Request) {
	// one snapshot answers node, path and children: a fuser writing
	// meanwhile cannot make node.children disagree with the expansion
	snap := s.sys.Graph.Snapshot()
	id := r.PathValue("id")
	i, ok := snap.Index(id)
	if !ok {
		writeKGErr(w, r, fmt.Errorf("%w: %s", kg.ErrNodeNotFound, id), http.StatusInternalServerError)
		return
	}
	path := make([]int32, 0, 16) // root first
	for at := i; at >= 0; at = snap.Dense(at).Parent {
		path = append(path, at)
	}
	slices.Reverse(path)
	// the bytes json.Marshal gives the map {"children": pageEnv,
	// "node": *kg.Node, "path": []*kg.Node}: keys sorted, envelope
	// fields in declaration order
	bp := bodies.Get().(*[]byte)
	b := append(*bp, '{')
	if r.URL.Query().Get("expand") == "children" {
		page, size := pageParams(r.URL.Query())
		kids := paginateSlice(snap.Dense(i).Children, page, size)
		b = appendNodes(append(b, `"children":{"Results":`...), snap, kids.Results)
		b = strconv.AppendInt(append(b, `,"Total":`...), int64(kids.Total), 10)
		b = strconv.AppendInt(append(b, `,"PageNum":`...), int64(kids.PageNum), 10)
		b = strconv.AppendInt(append(b, `,"PerPage":`...), int64(kids.PerPage), 10)
		b = strconv.AppendInt(append(b, `,"NumPages":`...), int64(kids.NumPages), 10)
		b = append(b, "},"...)
	}
	b = append(append(b, `"node":`...), snap.NodeJSON(i)...)
	b = appendNodes(append(b, `,"path":`...), snap, path)
	writePooled(w, http.StatusOK, bp, append(b, "}\n"...))
}

// appendNodes appends the nodes at the given positions as json.Marshal
// writes a non-nil []*kg.Node.
func appendNodes(b []byte, snap *kg.Snapshot, at []int32) []byte {
	b = append(b, '[')
	for k, i := range at {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, snap.NodeJSON(i)...)
	}
	return append(b, ']')
}

// appendPaths appends paths as json.Marshal writes a []kgquery.Path,
// nil as null, taking each node's encoding from snap: the paths must
// come from an execution over snap, so every node id is in it.
func appendPaths(b []byte, snap *kg.Snapshot, paths []kgquery.Path) []byte {
	if paths == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for k, p := range paths {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"nodes":[`...)
		for j, n := range p.Nodes {
			if j > 0 {
				b = append(b, ',')
			}
			i, _ := snap.Index(n.ID)
			b = append(b, snap.PathNodeJSON(i)...)
		}
		b = appendFloat(append(b, `],"confidence":`...), p.Confidence)
		b = appendFloat(append(b, `,"evidence_coverage":`...), p.EvidenceCoverage)
		b = strconv.AppendInt(append(b, `,"papers":`...), int64(p.Papers), 10)
		b = appendFloat(append(b, `,"score":`...), p.Score)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// form that round-trips, in exponent notation below 1e-6 and from 1e21
// up, with no leading zero in a negative exponent. f must be finite,
// as encoding/json refuses the others; every float a KG body carries is
// a product or a ratio of numbers in [0, 1].
func appendFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1] // e-07 → e-7
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// decodeKGBody reads a request body of at most kgMaxBodyBytes into v.
// On failure it answers 413 for an oversized body, 400 for a malformed
// one, and returns false.
func decodeKGBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, kgMaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(w, r, status, fmt.Errorf("bad request body: %w", err))
	return false
}

// kgQueryRequest is the POST /api/v1/kg/query body.
type kgQueryRequest struct {
	// Query is the path-query text (see DESIGN.md for the grammar).
	Query string `json:"query"`
	// Params binds $name references in the query text.
	Params map[string]string `json:"params,omitempty"`
	// Page/PageSize slice the ranked path set.
	Page     int `json:"page"`
	PageSize int `json:"page_size"`
	// MaxExpansions lowers (never raises) the executor's work budget.
	MaxExpansions int `json:"max_expansions"`
}

// handleKGQuery executes a declarative path query:
//
//	POST /api/v1/kg/query
//	{"query": "(norm=\"vaccines\")-{1,3}->(label~\"mrna\")", "page": 1}
//
// The request rides the search route class — its admission slots and
// deadline — and the executor checks the request context every yield
// interval, so a hung client or an expired deadline stops the
// traversal, not just the response write. Parse errors are 400
// bad_query with the byte offset of the fault; budget exhaustion is a
// 200 with "truncated": true, mirroring partial search results. Only
// the requested page of the ranked match set is materialised.
func (s *Server) handleKGQuery(w http.ResponseWriter, r *http.Request) {
	var req kgQueryRequest
	if !decodeKGBody(w, r, &req) {
		return
	}
	if req.Query == "" {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("missing query text"))
		return
	}
	q, err := kgquery.Parse(req.Query, req.Params)
	if err != nil {
		s.met.Counter("kgquery.parse_errors").Inc()
		writeKGErr(w, r, err, http.StatusBadRequest)
		return
	}
	opts := kgquery.Options{Limit: kgQueryResultCap}
	if req.MaxExpansions > 0 && req.MaxExpansions < kgquery.DefaultMaxExpansions {
		opts.MaxExpansions = req.MaxExpansions
	}
	page, size := clampPage(req.Page, req.PageSize)
	// a page past the cap is past the end whatever its number: clamp
	// before multiplying
	from := min(page-1, kgQueryResultCap) * size

	snap := s.sys.Graph.Snapshot()
	plan := kgquery.Compile(q, snap)
	start := time.Now()
	res, err := plan.ExecuteWindow(r.Context(), snap, opts, from, size)
	s.met.Histogram("kgquery.latency").Observe(time.Since(start))
	s.met.Counter("kgquery.queries").Inc()
	if err != nil {
		s.met.Counter("kgquery.cancelled").Inc()
		writeKGErr(w, r, err, http.StatusInternalServerError)
		return
	}
	s.met.Counter("kgquery.expansions").Add(int64(res.Expansions))
	s.met.Counter("kgquery.paths_returned").Add(int64(len(res.Paths)))
	s.met.Counter("kgquery.paths_matched").Add(int64(res.Total))
	s.met.Counter("kgquery.paths_materialized").Add(int64(len(res.Paths)))
	if res.Truncated {
		s.met.Counter("kgquery.truncated").Inc()
	}

	paths := res.Paths
	if paths == nil {
		paths = []kgquery.Path{} // an empty page is [], not null
	}
	// the bytes json.Marshal gives the payload map, keys sorted; the
	// entry kind's name is a plain word, with nothing to escape
	bp := bodies.Get().(*[]byte)
	b := strconv.AppendInt(append(*bp, `{"expansions":`...), int64(res.Expansions), 10)
	b = strconv.AppendInt(append(b, `,"num_pages":`...), int64(max((res.Total+size-1)/size, 1)), 10)
	b = strconv.AppendInt(append(b, `,"page_num":`...), int64(page), 10)
	b = appendPaths(append(b, `,"paths":`...), snap, paths)
	b = strconv.AppendInt(append(b, `,"per_page":`...), int64(size), 10)
	b = append(append(append(b, `,"plan":{"entry":"`...), plan.Entry.String()...), '"')
	b = strconv.AppendInt(append(b, `,"entry_candidates":`...), int64(res.EntryCandidates), 10)
	b = strconv.AppendBool(append(b, `,"reversed":`...), plan.Reversed)
	b = strconv.AppendInt(append(b, `},"total":`...), int64(res.Total), 10)
	b = strconv.AppendBool(append(b, `,"truncated":`...), res.Truncated)
	writePooled(w, http.StatusOK, bp, append(b, "}\n"...))
}

// kgHypothesesRequest is the POST /api/v1/kg/hypotheses body.
type kgHypothesesRequest struct {
	From    string `json:"from"`
	To      string `json:"to"`
	MaxHops int    `json:"max_hops"`
	Limit   int    `json:"limit"`
}

// handleKGHypotheses returns ranked evidence-scored paths between two
// concepts — the hypothesis-path surface: "how does BNT162b2 connect to
// Rash, and how much literature backs each link?" Unknown concepts are
// 404 not_found.
func (s *Server) handleKGHypotheses(w http.ResponseWriter, r *http.Request) {
	var req kgHypothesesRequest
	if !decodeKGBody(w, r, &req) {
		return
	}
	if req.From == "" || req.To == "" {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("both from and to concepts are required"))
		return
	}
	limit := req.Limit
	if limit < 1 {
		limit = kgDefaultPageSize
	}
	if limit > kgHypothesesCap {
		limit = kgHypothesesCap
	}
	snap := s.sys.Graph.Snapshot()
	start := time.Now()
	res, err := kgquery.Hypotheses(r.Context(), snap, req.From, req.To, req.MaxHops, limit,
		kgquery.Options{Limit: kgquery.MaxLimit})
	s.met.Histogram("kgquery.latency").Observe(time.Since(start))
	s.met.Counter("kgquery.hypotheses").Inc()
	if err != nil {
		writeKGErr(w, r, err, http.StatusInternalServerError)
		return
	}
	s.met.Counter("kgquery.paths_matched").Add(int64(res.Total))
	s.met.Counter("kgquery.paths_materialized").Add(int64(len(res.Paths)))
	// the bytes json.Marshal gives the payload map, keys sorted; the
	// concepts are the caller's strings, so encoding/json escapes them
	from, _ := json.Marshal(req.From) // a string always encodes
	to, _ := json.Marshal(req.To)
	bp := bodies.Get().(*[]byte)
	b := strconv.AppendInt(append(*bp, `{"expansions":`...), int64(res.Expansions), 10)
	b = append(append(b, `,"from":`...), from...)
	b = strconv.AppendInt(append(b, `,"max_hops":`...), int64(req.MaxHops), 10)
	b = appendPaths(append(b, `,"paths":`...), snap, res.Paths)
	b = append(append(b, `,"to":`...), to...)
	b = strconv.AppendInt(append(b, `,"total":`...), int64(res.Total), 10)
	b = strconv.AppendBool(append(b, `,"truncated":`...), res.Truncated)
	writePooled(w, http.StatusOK, bp, append(b, "}\n"...))
}
