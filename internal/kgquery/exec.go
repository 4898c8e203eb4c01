package kgquery

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"

	"covidkg/internal/kg"
)

// Executor defaults. Limit and MaxExpansions are the per-query budget:
// the deadline itself rides the request context (the API's search-class
// timeout), so the executor only needs to bound work between checks.
const (
	DefaultLimit         = 100
	DefaultMaxExpansions = 200_000
	DefaultYieldEvery    = 256
	// MaxLimit caps how many paths one execution may materialize
	// regardless of what the caller asks for.
	MaxLimit = 10_000
)

// Options tune one execution; zero fields take the defaults above.
type Options struct {
	// Limit is the maximum number of paths matched; a further match
	// beyond it marks the result truncated.
	Limit int
	// MaxExpansions bounds edge traversals; exhausting it marks the
	// result truncated rather than failing, so a pathological pattern
	// degrades to partial results like a dark shard does.
	MaxExpansions int
	// YieldEvery is how many expansions run between cooperative yields
	// (context check + runtime.Gosched). It bounds cancellation latency:
	// after ctx is done the executor performs at most YieldEvery-1
	// further expansions before returning.
	YieldEvery int
}

func (o Options) withDefaults() Options {
	if o.Limit <= 0 {
		o.Limit = DefaultLimit
	}
	if o.Limit > MaxLimit {
		o.Limit = MaxLimit
	}
	if o.MaxExpansions <= 0 {
		o.MaxExpansions = DefaultMaxExpansions
	}
	if o.YieldEvery <= 0 {
		o.YieldEvery = DefaultYieldEvery
	}
	return o
}

// PathNode is one node on a result path, defined beside the snapshot
// that keeps its encoding (kg.Snapshot.PathNodeJSON).
type PathNode = kg.PathNode

// Path is one match: the full node sequence (pattern endpoints and
// unconstrained intermediate hops alike) plus aggregates derived from
// node provenance — the hypothesis-path model: how trustworthy is each
// link (source-derived confidence) and how much of the chain is backed
// by literature (evidence coverage).
type Path struct {
	Nodes []PathNode `json:"nodes"`
	// Confidence is the product of per-node source confidences
	// (seed 1.0, expert 0.97, fusion 0.85).
	Confidence float64 `json:"confidence"`
	// EvidenceCoverage is the fraction of path nodes citing at least
	// one publication.
	EvidenceCoverage float64 `json:"evidence_coverage"`
	// Papers counts distinct publications cited along the path.
	Papers int `json:"papers"`
	// Score ranks paths: Confidence × (0.5 + 0.5 × EvidenceCoverage).
	Score float64 `json:"score"`
}

// Result is one execution's output.
type Result struct {
	// Paths is the requested window of the ranked match set: all of it
	// from Execute, [from, from+count) from ExecuteWindow.
	Paths []Path `json:"paths"`
	// Total is how many distinct paths matched (at most Limit).
	Total int `json:"total"`
	// Expansions is how many edge traversals the query cost.
	Expansions int `json:"expansions"`
	// EntryCandidates is how many entry nodes the plan admitted.
	EntryCandidates int `json:"entry_candidates"`
	// Truncated is set when the result limit or expansion budget cut
	// the search short: the paths are valid but possibly incomplete.
	Truncated bool `json:"truncated"`
}

// Per-source confidence weights, defined beside the sources in
// internal/kg: the snapshot holds each node's weight, and the
// reference (naivePath) multiplies these.
const (
	confSeed    = kg.ConfSeed
	confExpert  = kg.ConfExpert
	confFusion  = kg.ConfFusion
	confUnknown = kg.ConfUnknown
)

// internal unwind sentinels: stop the traversal without failing it
var (
	errLimitHit  = errors.New("kgquery: path limit reached")
	errBudgetHit = errors.New("kgquery: expansion budget exhausted")
)

// Execute runs the plan against a snapshot and materialises every
// matched path. It returns ctx.Err() when cancelled or past deadline
// (checked every YieldEvery expansions); exhausted budgets return a
// truncated result, not an error. Results are ranked by Score
// (descending), then shorter paths first, then by node-id sequence for
// full determinism.
func (p *Plan) Execute(ctx context.Context, snap *kg.Snapshot, opts Options) (*Result, error) {
	return p.ExecuteWindow(ctx, snap, opts, 0, MaxLimit)
}

// ExecuteWindow is Execute for a caller that shows one page: the walk,
// Total, Expansions and Truncated are Execute's, but only the paths
// ranked [from, from+count) are built. A matched path costs a score
// and its id run in a shared arena; PathNodes and the distinct-paper
// count exist for the window alone.
func (p *Plan) ExecuteWindow(ctx context.Context, snap *kg.Snapshot, opts Options, from, count int) (*Result, error) {
	ex := executors.Get().(*executor)
	ex.reset(ctx, p, snap, opts.withDefaults())
	res, err := ex.execute(from, count)
	// not deferred: a walk that panics leaves marks set in onPath, and
	// an executor in that state must not serve another query
	ex.ctx, ex.plan, ex.snap = nil, nil, nil
	executors.Put(ex)
	return res, err
}

func (ex *executor) execute(from, count int) (*Result, error) {
	candidates, err := ex.enterAll()
	res := &Result{EntryCandidates: candidates, Expansions: ex.expansions}
	switch {
	case err == nil:
	case errors.Is(err, errLimitHit), errors.Is(err, errBudgetHit):
		res.Truncated = true
	default:
		return nil, err // context cancellation / deadline
	}
	res.Total = len(ex.recs)
	if res.Paths, err = ex.materialize(ex.rank(from, count)); err != nil {
		return nil, err
	}
	return res, nil
}

// pathRec is one matched path before anyone asked to see it: its score
// and where its node positions (query order) sit in executor.runs.
type pathRec struct {
	score  float64
	off, n int32
}

// executor is one execution's state. Executors are pooled with their
// scratch slices, so a page allocates none of them, and none costs
// O(corpus) per page: the walk leaves every onPath mark false, and a
// paper stamp is a generation number, cleared only when it wraps.
type executor struct {
	plan *Plan
	snap *kg.Snapshot
	opts Options
	ctx  context.Context

	expansions int
	path       []int32 // partial path, execution order
	onPath     []bool  // by node position: is it on path
	recs       []pathRec
	runs       []int32 // the records' id runs, back to back
	dedup      bool
	seen       []int32  // open-addressed set of record numbers + 1, keyed by run
	stamp      []uint32 // by paper ordinal: the generation that last counted it
	gen        uint32
}

var executors = sync.Pool{New: func() any { return new(executor) }}

// reset readies a pooled executor for one execution of p over snap.
func (ex *executor) reset(ctx context.Context, p *Plan, snap *kg.Snapshot, opts Options) {
	ex.ctx, ex.plan, ex.snap, ex.opts = ctx, p, snap, opts
	ex.expansions = 0
	// one variable-length edge walks each simple path once; two can
	// reach the same node sequence through different hop splits
	ex.dedup = len(p.pat.Edges) >= 2
	ex.path, ex.recs, ex.runs = ex.path[:0], ex.recs[:0], ex.runs[:0]
	clear(ex.seen)
	if len(ex.onPath) < snap.Len() {
		ex.onPath = make([]bool, snap.Len())
	}
	if len(ex.stamp) < snap.NumPapers() {
		ex.stamp = make([]uint32, snap.NumPapers())
	}
}

func (ex *executor) run(r pathRec) []int32 { return ex.runs[r.off : r.off+r.n] }

// expand charges one unit of work and cooperatively yields at the
// configured interval: check the context, then let the scheduler run
// someone else. This is the walk's entire cancellation story — no
// traversal loop runs more than YieldEvery expansions between checks.
func (ex *executor) expand() error {
	ex.expansions++
	if ex.expansions%ex.opts.YieldEvery == 0 {
		if err := ex.ctx.Err(); err != nil {
			return err
		}
		runtime.Gosched()
	}
	if ex.expansions >= ex.opts.MaxExpansions {
		return errBudgetHit
	}
	return nil
}

// enterAll starts a walk at every entry candidate the plan admits:
// one node by id, a byNorm posting, or every node in id order.
// Candidates are a superset; each still meets the first step's full
// predicate list.
func (ex *executor) enterAll() (candidates int, err error) {
	switch ex.plan.Entry {
	case EntryID:
		if i, ok := ex.snap.Index(ex.plan.EntryKey); ok {
			return 1, ex.enter(i)
		}
		return 0, nil
	case EntryNorm:
		ids := ex.snap.ByNorm(ex.plan.EntryKey)
		for _, id := range ids {
			if i, ok := ex.snap.Index(id); ok {
				if err := ex.enter(i); err != nil {
					return len(ids), err
				}
			}
		}
		return len(ids), nil
	default:
		for i := int32(0); int(i) < ex.snap.Len(); i++ {
			if err := ex.enter(i); err != nil {
				return ex.snap.Len(), err
			}
		}
		return ex.snap.Len(), nil
	}
}

func (ex *executor) enter(i int32) error {
	if !matchNode(ex.snap, i, ex.plan.steps[0]) {
		return nil
	}
	// entry matching costs one expansion too: a scan entry over a huge
	// graph must stay cancellable even if nothing matches
	return ex.visit(i, 0, 0)
}

// visit charges the hop to node i, puts it on the path depth hops into
// edge ei, walks on from it and takes it off again. Paths are simple: a
// node appears at most once (onPath), which both matches the
// hypothesis-path reading and makes DirAny traversal terminate.
func (ex *executor) visit(i int32, ei, depth int) error {
	if err := ex.expand(); err != nil {
		return err
	}
	ex.path = append(ex.path, i)
	ex.onPath[i] = true
	err := ex.walk(ei, depth)
	ex.onPath[i] = false
	ex.path = ex.path[:len(ex.path)-1]
	return err
}

// walk extends the partial path, whose last node is depth hops into
// edge ei, toward node step ei+1: first on across the next edge if the
// node can close this one, then one hop further along it — children in
// insertion order, then the parent.
func (ex *executor) walk(ei, depth int) error {
	if ei == len(ex.plan.pat.Edges) {
		return ex.emit()
	}
	e := &ex.plan.pat.Edges[ei]
	cur := ex.path[len(ex.path)-1]
	if depth >= e.Min && matchNode(ex.snap, cur, ex.plan.steps[ei+1]) {
		if err := ex.walk(ei+1, 0); err != nil {
			return err
		}
	}
	if depth == e.Max {
		return nil
	}
	d := ex.snap.Dense(cur)
	if e.Dir != DirUp {
		for _, next := range d.Children {
			if !ex.onPath[next] {
				if err := ex.visit(next, ei, depth+1); err != nil {
					return err
				}
			}
		}
	}
	if e.Dir != DirDown && d.Parent >= 0 && !ex.onPath[d.Parent] {
		return ex.visit(d.Parent, ei, depth+1)
	}
	return nil
}

// emit records a completed path in query order (the planner may have
// walked it backwards), unless it is a repeat. The limit cuts on the
// first distinct path beyond it, so a match set of exactly Limit paths
// is complete, not truncated.
func (ex *executor) emit() error {
	off := len(ex.runs)
	ex.runs = append(ex.runs, ex.path...)
	run := ex.runs[off:]
	if ex.plan.Reversed {
		slices.Reverse(run)
	}
	switch {
	case ex.dedup && ex.seenOrAdd(run):
		ex.runs = ex.runs[:off]
		return nil
	case len(ex.recs) == ex.opts.Limit:
		// seenOrAdd may have filed this run under a record that will
		// never exist; the walk ends here, nothing looks it up again
		ex.runs = ex.runs[:off]
		return errLimitHit
	}
	conf, coverage := ex.aggregates(run)
	ex.recs = append(ex.recs, pathRec{conf * (0.5 + 0.5*coverage), int32(off), int32(len(run))})
	return nil
}

// aggregates derives a path's confidence and evidence coverage from
// the snapshot's per-node constants, multiplying in query order: the
// product's bits depend on the order, and the reference (naivePath)
// multiplies first node first.
func (ex *executor) aggregates(run []int32) (conf, coverage float64) {
	conf = 1
	withEvidence := 0
	for _, i := range run {
		d := ex.snap.Dense(i)
		conf *= d.Conf
		if len(d.Papers) > 0 {
			withEvidence++
		}
	}
	return conf, float64(withEvidence) / float64(len(run))
}

// seenOrAdd reports whether a recorded path has this id run; if none
// has, it files the run under the next record number.
func (ex *executor) seenOrAdd(run []int32) bool {
	if 2*(len(ex.recs)+1) > len(ex.seen) {
		ex.seen = make([]int32, max(2*len(ex.seen), 64))
		for i, r := range ex.recs {
			ex.seen[ex.seenSlot(ex.run(r))] = int32(i) + 1
		}
	}
	slot := ex.seenSlot(run)
	if ex.seen[slot] != 0 {
		return true
	}
	ex.seen[slot] = int32(len(ex.recs)) + 1
	return false
}

// seenSlot probes linearly from the run's hash (FNV-1a over positions)
// to the slot that holds an equal run, or the empty one where it
// belongs.
func (ex *executor) seenSlot(run []int32) uint32 {
	h := uint32(2166136261)
	for _, v := range run {
		h = (h ^ uint32(v)) * 16777619
	}
	mask := uint32(len(ex.seen) - 1)
	slot := (h ^ h>>15) & mask
	for r := ex.seen[slot]; r != 0 && !slices.Equal(ex.run(ex.recs[r-1]), run); r = ex.seen[slot] {
		slot = (slot + 1) & mask
	}
	return slot
}

// compare ranks two records: best score first, then shortest, then id
// sequence — positions are in sorted-id order, so comparing them is
// comparing the ids.
func (ex *executor) compare(a, b pathRec) int {
	switch {
	case a.score > b.score:
		return -1
	case a.score < b.score:
		return 1
	case a.n != b.n:
		return int(a.n - b.n)
	}
	return slices.Compare(ex.run(a), ex.run(b))
}

// rank returns the records ranked [from, from+count), sorting no more
// than the from+count best: a bounded heap with the worst kept record
// on top selects them in one pass over the rest.
func (ex *executor) rank(from, count int) []pathRec {
	recs := ex.recs
	if from < 0 || from >= len(recs) || count <= 0 {
		return nil
	}
	top := recs[:from+min(count, len(recs)-from)]
	for i := len(top)/2 - 1; i >= 0; i-- {
		ex.siftDown(top, i)
	}
	for i := len(top); i < len(recs); i++ {
		if ex.compare(recs[i], top[0]) < 0 {
			top[0], recs[i] = recs[i], top[0]
			ex.siftDown(top, 0)
		}
	}
	slices.SortFunc(top, ex.compare)
	return top[from:]
}

func (ex *executor) siftDown(h []pathRec, i int) {
	for {
		worse := 2*i + 1
		if worse >= len(h) {
			return
		}
		if r := worse + 1; r < len(h) && ex.compare(h[r], h[worse]) > 0 {
			worse = r
		}
		if ex.compare(h[worse], h[i]) <= 0 {
			return
		}
		h[i], h[worse] = h[worse], h[i]
		i = worse
	}
}

// materialize builds the transport form of the chosen records: nodes
// from one backing slice, distinct papers counted by stamping interned
// ordinals with a generation of the path's own. A window can be
// MaxLimit paths, so it checks the context like the walk does, every
// YieldEvery paths starting with the first: a caller gone since the
// walk's last check gets no result.
func (ex *executor) materialize(win []pathRec) ([]Path, error) {
	if len(win) == 0 {
		return nil, nil
	}
	total := 0
	for _, r := range win {
		total += int(r.n)
	}
	nodes := make([]PathNode, total)
	paths := make([]Path, len(win))
	for k, r := range win {
		if k%ex.opts.YieldEvery == 0 {
			if err := ex.ctx.Err(); err != nil {
				return nil, err
			}
		}
		if ex.gen++; ex.gen == 0 {
			clear(ex.stamp)
			ex.gen = 1
		}
		run := ex.run(r)
		p := Path{Nodes: nodes[:len(run):len(run)], Score: r.score}
		nodes = nodes[len(run):]
		for j, i := range run {
			n, ords := ex.snap.At(i), ex.snap.Dense(i).Papers
			p.Nodes[j] = PathNode{ID: n.ID, Label: n.Label, Norm: n.Norm, Source: n.Source, Papers: len(ords)}
			for _, o := range ords {
				if ex.stamp[o] != ex.gen {
					ex.stamp[o] = ex.gen
					p.Papers++
				}
			}
		}
		p.Confidence, p.EvidenceCoverage = ex.aggregates(run)
		paths[k] = p
	}
	return paths, nil
}
