package kgquery

import (
	"context"
	"fmt"

	"covidkg/internal/kg"
	"covidkg/internal/textproc"
)

// DefaultHypothesisHops is how far apart two concepts may sit when the
// caller does not say.
const DefaultHypothesisHops = 4

// Hypotheses returns evidence-scored paths connecting two concepts,
// ranked best first: the API behind POST /api/v1/kg/hypotheses. Both
// concepts resolve through the byNorm index (the same normalization
// fusion matches with); a concept with no node in the graph returns an
// error wrapping kg.ErrNodeNotFound. Paths may run in either direction
// through the hierarchy (up to a shared ancestor and back down), capped
// at maxHops hops; the best top of them are materialised.
func Hypotheses(ctx context.Context, snap *kg.Snapshot, from, to string, maxHops, top int, opts Options) (*Result, error) {
	if maxHops <= 0 {
		maxHops = DefaultHypothesisHops
	}
	if maxHops > MaxHop {
		maxHops = MaxHop
	}
	fromNorm := textproc.NormalizeTerm(from)
	toNorm := textproc.NormalizeTerm(to)
	if fromNorm == "" || len(snap.ByNorm(fromNorm)) == 0 {
		return nil, fmt.Errorf("%w: concept %q", kg.ErrNodeNotFound, from)
	}
	if toNorm == "" || len(snap.ByNorm(toNorm)) == 0 {
		return nil, fmt.Errorf("%w: concept %q", kg.ErrNodeNotFound, to)
	}
	q := &Query{
		Pattern: Pattern{
			Nodes: []NodeStep{
				{Preds: []Pred{{Field: FieldNorm, Op: OpEq, Value: from}}},
				{Preds: []Pred{{Field: FieldNorm, Op: OpEq, Value: to}}},
			},
			Edges: []EdgeStep{{Dir: DirAny, Min: 1, Max: maxHops}},
		},
		Text: fmt.Sprintf("(norm=%q)-{1,%d}-(norm=%q)", from, maxHops, to),
	}
	return Compile(q, snap).ExecuteWindow(ctx, snap, opts, 0, top)
}
