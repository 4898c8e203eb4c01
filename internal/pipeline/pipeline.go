// Package pipeline implements the aggregation-pipeline query model the
// COVIDKG search engines are written in (§2.1). A pipeline is an ordered
// list of stages; documents stream through stage by stage. The stage
// vocabulary mirrors the subset of MongoDB the paper uses — $match,
// $project, and custom $function ranking stages — plus the standard
// supporting stages ($sort, $limit, $skip, $group, $unwind, $addFields,
// $count) needed to express complete queries.
//
// Stages are Go values rather than parsed JSON: the paper's "$function"
// stages are JavaScript closures inside MongoDB; here they are Go
// closures, which preserves the architecture (arbitrary per-document
// compute inside the pipeline) without embedding a JS engine.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"

	"covidkg/internal/jsondoc"
)

// ErrBadStage reports a stage misconfiguration.
var ErrBadStage = errors.New("pipeline: bad stage")

// Stage transforms a stream of documents into another stream.
type Stage interface {
	// Run consumes the input slice and returns the output slice. Stages
	// own their input and may mutate or reuse it. $match and $function
	// check ctx every CancelCheckInterval documents and return ctx.Err()
	// once the request driving the pipeline is gone.
	Run(ctx context.Context, in []jsondoc.Doc) ([]jsondoc.Doc, error)
	// Name returns the stage's $name for diagnostics.
	Name() string
}

// CancelCheckInterval is how many documents a cooperative loop (source
// scans, serial and parallel stage bodies) processes between context
// checks. It bounds how long a cancelled request keeps burning CPU: one
// interval at most.
const CancelCheckInterval = 64

// Source yields the initial document stream; fn returning false stops
// it. Every docstore.Docs is a Source. An error means the stream is
// incomplete (a dark shard, a dead context), never a partial success.
type Source interface {
	ScanContext(ctx context.Context, fn func(jsondoc.Doc) bool) error
}

// Pipeline is an ordered list of stages applied to a source.
type Pipeline struct {
	stages []Stage
}

// New builds a pipeline from stages.
func New(stages ...Stage) *Pipeline { return &Pipeline{stages: stages} }

// Append adds stages and returns the pipeline for chaining.
func (p *Pipeline) Append(stages ...Stage) *Pipeline {
	p.stages = append(p.stages, stages...)
	return p
}

// Stages returns the stage names in order, for explain output.
func (p *Pipeline) Stages() []string {
	out := make([]string, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.Name()
	}
	return out
}

// RunContext executes the pipeline over the source, abandoning work as
// soon as ctx is cancelled or its deadline expires: the streaming scan
// checks the context every CancelCheckInterval documents, $match and
// $function stages stop mid-stream, and remaining stages are skipped. A cancelled
// run returns ctx.Err() (wrapped), never a partial result; so does a
// source that fails, with the source's error.
//
// The first contiguous run of $match stages is evaluated while streaming
// from the source so non-matching documents are dropped before any
// buffering — this is the "$match first to minimize the amount of data
// passed through all the latter stages" optimization the paper calls out.
// Every later stage then processes the (already much smaller) buffer.
func (p *Pipeline) RunContext(ctx context.Context, src Source) ([]jsondoc.Doc, error) {
	var streamMatches []*MatchStage
	rest := p.stages
	for len(rest) > 0 {
		m, ok := rest[0].(*MatchStage)
		if !ok {
			break
		}
		streamMatches = append(streamMatches, m)
		rest = rest[1:]
	}

	var buf []jsondoc.Doc
	scanned := 0
	err := src.ScanContext(ctx, func(d jsondoc.Doc) bool {
		scanned++
		if scanned%CancelCheckInterval == 0 && ctx.Err() != nil {
			return false
		}
		for _, m := range streamMatches {
			if !m.pred(d) {
				return true
			}
		}
		buf = append(buf, d)
		return true
	})
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: scan: %w", err)
	}

	for _, st := range rest {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("pipeline: stage %s: %w", st.Name(), ctx.Err())
		}
		buf, err = st.Run(ctx, buf)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %s: %w", st.Name(), err)
		}
	}
	return buf, nil
}

// SliceSource adapts a document slice to the Source interface.
type SliceSource []jsondoc.Doc

// ScanContext implements Source; RunContext does the context checks.
func (s SliceSource) ScanContext(_ context.Context, fn func(jsondoc.Doc) bool) error {
	for _, d := range s {
		if !fn(d) {
			break
		}
	}
	return nil
}

// ---------------------------------------------------------------- $match

// MatchStage filters documents by a predicate.
type MatchStage struct {
	pred func(jsondoc.Doc) bool
	desc string
}

// Match builds a $match stage from an arbitrary predicate.
func Match(pred func(jsondoc.Doc) bool) *MatchStage {
	return &MatchStage{pred: pred, desc: "$match"}
}

// MatchEq matches documents whose value at path equals v.
func MatchEq(path string, v any) *MatchStage {
	want := jsondoc.Normalize(v)
	return &MatchStage{
		pred: func(d jsondoc.Doc) bool {
			got, ok := d.Get(path)
			return ok && jsondoc.Equal(got, want)
		},
		desc: "$match(eq " + path + ")",
	}
}

// MatchRegex matches documents whose string value at path matches re.
// This is the primitive the paper's stemmed-regex text matching builds on.
func MatchRegex(path string, re *regexp.Regexp) *MatchStage {
	return &MatchStage{
		pred: func(d jsondoc.Doc) bool {
			v, ok := d.Get(path)
			if !ok {
				return false
			}
			s, ok := v.(string)
			return ok && re.MatchString(s)
		},
		desc: "$match(regex " + path + ")",
	}
}

// MatchExists matches documents where path resolves.
func MatchExists(path string) *MatchStage {
	return &MatchStage{
		pred: func(d jsondoc.Doc) bool { return d.Has(path) },
		desc: "$match(exists " + path + ")",
	}
}

// Name implements Stage.
func (m *MatchStage) Name() string { return m.desc }

// Run implements Stage.
func (m *MatchStage) Run(ctx context.Context, in []jsondoc.Doc) ([]jsondoc.Doc, error) {
	out := in[:0]
	for i, d := range in {
		if i%CancelCheckInterval == CancelCheckInterval-1 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if m.pred(d) {
			out = append(out, d)
		}
	}
	return out, nil
}

// -------------------------------------------------------------- $project

// ProjectStage keeps only the named fields (plus _id unless excluded).
type ProjectStage struct {
	fields    []string
	excludeID bool
}

// Project builds a $project stage keeping the listed dotted paths.
func Project(fields ...string) *ProjectStage { return &ProjectStage{fields: fields} }

// ExcludeID drops the _id field from the projection.
func (p *ProjectStage) ExcludeID() *ProjectStage {
	p.excludeID = true
	return p
}

// Name implements Stage.
func (p *ProjectStage) Name() string { return "$project" }

// Run implements Stage.
func (p *ProjectStage) Run(_ context.Context, in []jsondoc.Doc) ([]jsondoc.Doc, error) {
	if len(p.fields) == 0 {
		return nil, fmt.Errorf("%w: $project needs at least one field", ErrBadStage)
	}
	out := make([]jsondoc.Doc, len(in))
	for i, d := range in {
		nd := jsondoc.New()
		if !p.excludeID {
			if id, ok := d["_id"]; ok {
				nd["_id"] = id
			}
		}
		for _, f := range p.fields {
			if v, ok := d.Get(f); ok {
				if err := nd.Set(f, v); err != nil {
					return nil, err
				}
			}
		}
		out[i] = nd
	}
	return out, nil
}

// ------------------------------------------------------------- $function

// FunctionStage applies an arbitrary per-document transformation — the
// pipeline's escape hatch, used by the paper for custom ranking features.
type FunctionStage struct {
	name string
	fn   func(jsondoc.Doc) (jsondoc.Doc, error)
}

// Function builds a named $function stage. Returning a nil document drops
// the input document from the stream.
func Function(name string, fn func(jsondoc.Doc) (jsondoc.Doc, error)) *FunctionStage {
	return &FunctionStage{name: name, fn: fn}
}

// Name implements Stage.
func (f *FunctionStage) Name() string { return "$function(" + f.name + ")" }

// Run implements Stage. The per-document loop checks ctx, so a slow
// custom function cannot pin a worker past cancellation.
func (f *FunctionStage) Run(ctx context.Context, in []jsondoc.Doc) ([]jsondoc.Doc, error) {
	out := in[:0]
	for i, d := range in {
		if i%CancelCheckInterval == CancelCheckInterval-1 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		nd, err := f.fn(d)
		if err != nil {
			return nil, err
		}
		if nd != nil {
			out = append(out, nd)
		}
	}
	return out, nil
}

// ------------------------------------------------------------ $addFields

// AddFieldsStage computes new fields from each document.
type AddFieldsStage struct {
	fields map[string]func(jsondoc.Doc) any
}

// AddFields builds an $addFields stage; each entry computes the value
// stored at its path.
func AddFields(fields map[string]func(jsondoc.Doc) any) *AddFieldsStage {
	return &AddFieldsStage{fields: fields}
}

// Name implements Stage.
func (a *AddFieldsStage) Name() string { return "$addFields" }

// Run implements Stage.
func (a *AddFieldsStage) Run(_ context.Context, in []jsondoc.Doc) ([]jsondoc.Doc, error) {
	paths := make([]string, 0, len(a.fields))
	for p := range a.fields {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, d := range in {
		for _, p := range paths {
			if err := d.Set(p, a.fields[p](d)); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

// ----------------------------------------------------------------- $sort

// SortStage orders documents by one or more keys.
type SortStage struct {
	keys []SortKey
}

// SortKey is one ordering component.
type SortKey struct {
	Path string
	Desc bool
}

// Sort builds a $sort stage. The sort is stable so equal keys preserve
// upstream order.
func Sort(keys ...SortKey) *SortStage { return &SortStage{keys: keys} }

// SortBy is shorthand for a single ascending key.
func SortBy(path string) *SortStage { return Sort(SortKey{Path: path}) }

// SortByDesc is shorthand for a single descending key.
func SortByDesc(path string) *SortStage { return Sort(SortKey{Path: path, Desc: true}) }

// Name implements Stage.
func (s *SortStage) Name() string { return "$sort" }

// Run implements Stage.
func (s *SortStage) Run(_ context.Context, in []jsondoc.Doc) ([]jsondoc.Doc, error) {
	if len(s.keys) == 0 {
		return nil, fmt.Errorf("%w: $sort needs at least one key", ErrBadStage)
	}
	sort.SliceStable(in, func(i, j int) bool {
		for _, k := range s.keys {
			vi, _ := in[i].Get(k.Path)
			vj, _ := in[j].Get(k.Path)
			c := jsondoc.Compare(vi, vj)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return in, nil
}

// ---------------------------------------------------------- $limit/$skip

// LimitStage caps the stream length.
type LimitStage struct{ n int }

// Limit builds a $limit stage.
func Limit(n int) *LimitStage { return &LimitStage{n: n} }

// Name implements Stage.
func (l *LimitStage) Name() string { return "$limit" }

// Run implements Stage.
func (l *LimitStage) Run(_ context.Context, in []jsondoc.Doc) ([]jsondoc.Doc, error) {
	if l.n < 0 {
		return nil, fmt.Errorf("%w: negative $limit", ErrBadStage)
	}
	if len(in) > l.n {
		in = in[:l.n]
	}
	return in, nil
}

// SkipStage drops the first n documents.
type SkipStage struct{ n int }

// Skip builds a $skip stage.
func Skip(n int) *SkipStage { return &SkipStage{n: n} }

// Name implements Stage.
func (s *SkipStage) Name() string { return "$skip" }

// Run implements Stage.
func (s *SkipStage) Run(_ context.Context, in []jsondoc.Doc) ([]jsondoc.Doc, error) {
	if s.n < 0 {
		return nil, fmt.Errorf("%w: negative $skip", ErrBadStage)
	}
	if s.n >= len(in) {
		return nil, nil
	}
	return in[s.n:], nil
}

// --------------------------------------------------------------- $unwind

// UnwindStage flattens an array field into one document per element.
type UnwindStage struct{ path string }

// Unwind builds an $unwind stage over the array at path. Documents where
// the path is missing or not an array are dropped, matching MongoDB's
// default behaviour.
func Unwind(path string) *UnwindStage { return &UnwindStage{path: path} }

// Name implements Stage.
func (u *UnwindStage) Name() string { return "$unwind" }

// Run implements Stage.
func (u *UnwindStage) Run(_ context.Context, in []jsondoc.Doc) ([]jsondoc.Doc, error) {
	var out []jsondoc.Doc
	for _, d := range in {
		arr := d.GetArray(u.path)
		for _, e := range arr {
			nd := d.Clone()
			if err := nd.Set(u.path, e); err != nil {
				return nil, err
			}
			out = append(out, nd)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------- $group

// Accumulator aggregates values across the documents of one group.
type Accumulator struct {
	// Field is the output field name.
	Field string
	// Init returns the zero state.
	Init func() any
	// Step folds one document into the state.
	Step func(state any, d jsondoc.Doc) any
	// Final converts the state to the output value (nil means identity).
	Final func(state any) any
}

// Sum accumulates the numeric value at path.
func Sum(field, path string) Accumulator {
	return Accumulator{
		Field: field,
		Init:  func() any { return float64(0) },
		Step: func(state any, d jsondoc.Doc) any {
			n, _ := d.GetNumber(path)
			return state.(float64) + n
		},
	}
}

// CountAcc counts group members.
func CountAcc(field string) Accumulator {
	return Accumulator{
		Field: field,
		Init:  func() any { return float64(0) },
		Step:  func(state any, _ jsondoc.Doc) any { return state.(float64) + 1 },
	}
}

// Push collects the values at path into an array.
func Push(field, path string) Accumulator {
	return Accumulator{
		Field: field,
		Init:  func() any { return []any(nil) },
		Step: func(state any, d jsondoc.Doc) any {
			v, ok := d.Get(path)
			if !ok {
				return state
			}
			return append(state.([]any), v)
		},
	}
}

// Avg averages the numeric value at path.
func Avg(field, path string) Accumulator {
	type st struct{ sum, n float64 }
	return Accumulator{
		Field: field,
		Init:  func() any { return &st{} },
		Step: func(state any, d jsondoc.Doc) any {
			s := state.(*st)
			if v, ok := d.GetNumber(path); ok {
				s.sum += v
				s.n++
			}
			return s
		},
		Final: func(state any) any {
			s := state.(*st)
			if s.n == 0 {
				return nil
			}
			return s.sum / s.n
		},
	}
}

// GroupStage groups documents by a key expression and folds accumulators.
type GroupStage struct {
	keyFn func(jsondoc.Doc) any
	accs  []Accumulator
}

// GroupBy builds a $group stage keyed by the value at path.
func GroupBy(path string, accs ...Accumulator) *GroupStage {
	return &GroupStage{
		keyFn: func(d jsondoc.Doc) any {
			v, _ := d.Get(path)
			return v
		},
		accs: accs,
	}
}

// GroupByFunc builds a $group stage with a computed key.
func GroupByFunc(keyFn func(jsondoc.Doc) any, accs ...Accumulator) *GroupStage {
	return &GroupStage{keyFn: keyFn, accs: accs}
}

// Name implements Stage.
func (g *GroupStage) Name() string { return "$group" }

// Run implements Stage.
func (g *GroupStage) Run(_ context.Context, in []jsondoc.Doc) ([]jsondoc.Doc, error) {
	type group struct {
		key    any
		states []any
	}
	groups := map[string]*group{}
	var order []string
	for _, d := range in {
		key := jsondoc.Normalize(g.keyFn(d))
		ks := string(jsondoc.Doc{"k": key}.JSON())
		gr, ok := groups[ks]
		if !ok {
			gr = &group{key: key, states: make([]any, len(g.accs))}
			for i, a := range g.accs {
				gr.states[i] = a.Init()
			}
			groups[ks] = gr
			order = append(order, ks)
		}
		for i, a := range g.accs {
			gr.states[i] = a.Step(gr.states[i], d)
		}
	}
	out := make([]jsondoc.Doc, 0, len(groups))
	for _, ks := range order {
		gr := groups[ks]
		d := jsondoc.Doc{"_id": gr.key}
		for i, a := range g.accs {
			v := gr.states[i]
			if a.Final != nil {
				v = a.Final(v)
			}
			d[a.Field] = jsondoc.Normalize(v)
		}
		out = append(out, d)
	}
	return out, nil
}

// ---------------------------------------------------------------- $count

// CountStage replaces the stream with a single {<field>: N} document.
type CountStage struct{ field string }

// Count builds a $count stage.
func Count(field string) *CountStage { return &CountStage{field: field} }

// Name implements Stage.
func (c *CountStage) Name() string { return "$count" }

// Run implements Stage.
func (c *CountStage) Run(_ context.Context, in []jsondoc.Doc) ([]jsondoc.Doc, error) {
	if c.field == "" {
		return nil, fmt.Errorf("%w: $count needs a field name", ErrBadStage)
	}
	return []jsondoc.Doc{{c.field: float64(len(in))}}, nil
}

// Explain renders the pipeline shape, e.g. "$match -> $project -> $sort".
func (p *Pipeline) Explain() string {
	return strings.Join(p.Stages(), " -> ")
}
