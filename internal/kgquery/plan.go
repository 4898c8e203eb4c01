package kgquery

import (
	"strings"

	"covidkg/internal/kg"
	"covidkg/internal/textproc"
)

// EntryKind is how the executor locates candidates for the first node
// step of the (possibly reversed) pattern.
type EntryKind int

const (
	// EntryScan examines every node — the fallback when no predicate is
	// indexable.
	EntryScan EntryKind = iota
	// EntryID resolves a single node by id.
	EntryID
	// EntryNorm reads candidate ids off the graph's byNorm index: used
	// for norm= directly and for label= (any node with that exact label
	// necessarily has the label's normalized form as its norm, so the
	// index is a sound prefilter).
	EntryNorm
)

func (k EntryKind) String() string {
	switch k {
	case EntryID:
		return "id"
	case EntryNorm:
		return "norm-index"
	default:
		return "scan"
	}
}

// Plan is a compiled query: the execution-order pattern (reversed when
// the planner found the far end cheaper to enter), the chosen entry
// strategy, and its estimated candidate count.
type Plan struct {
	pat      Pattern
	steps    [][]Pred  // pat.Nodes' predicates, values resolved (resolvePred)
	Reversed bool      // pattern executes right-to-left; paths are un-reversed before return
	Entry    EntryKind // candidate strategy for the execution-order first step
	EntryKey string    // id value (EntryID) or normalized term (EntryNorm)
	Cost     int       // estimated entry candidates (len(IDs()) for a scan)
}

// Compile plans q against a snapshot. The planner is cost-based over
// real index sizes: it scores both ends of the pattern by how many
// entry candidates each would admit — an id predicate is one node, a
// norm=/label= predicate is the byNorm posting's length, anything else
// is a full scan — and starts from the cheaper end, flipping edge
// directions when that end is the last step.
func Compile(q *Query, snap *kg.Snapshot) *Plan {
	pat := q.Pattern
	first, firstCost := entryOf(&pat.Nodes[0], snap)
	p := &Plan{pat: pat, Entry: first.kind, EntryKey: first.key, Cost: firstCost}
	if len(pat.Nodes) > 1 {
		last, lastCost := entryOf(&pat.Nodes[len(pat.Nodes)-1], snap)
		if lastCost < firstCost {
			p.pat = reversePattern(pat)
			p.Reversed = true
			p.Entry, p.EntryKey, p.Cost = last.kind, last.key, lastCost
		}
	}
	p.steps = make([][]Pred, len(p.pat.Nodes))
	for i, n := range p.pat.Nodes {
		for _, pr := range n.Preds {
			p.steps[i] = append(p.steps[i], resolvePred(pr))
		}
	}
	return p
}

type entry struct {
	kind EntryKind
	key  string
}

// entryOf picks the cheapest entry strategy a node step supports and
// estimates its candidate count against the snapshot.
func entryOf(n *NodeStep, snap *kg.Snapshot) (entry, int) {
	best := entry{kind: EntryScan}
	cost := snap.Len()
	for _, pr := range n.Preds {
		if pr.Op != OpEq {
			continue
		}
		switch pr.Field {
		case FieldID:
			// exactly one candidate (or zero); nothing beats it
			return entry{kind: EntryID, key: pr.Value}, 1
		case FieldNorm, FieldLabel:
			norm := textproc.NormalizeTerm(pr.Value)
			if c := len(snap.ByNorm(norm)); c < cost {
				best = entry{kind: EntryNorm, key: norm}
				cost = c
			}
		}
	}
	return best, cost
}

// reversePattern flips a pattern end to end: node order reverses, edge
// order reverses, and each edge's direction flips (a downward hop
// walked from the far end is an upward hop).
func reversePattern(pat Pattern) Pattern {
	out := Pattern{
		Nodes: make([]NodeStep, len(pat.Nodes)),
		Edges: make([]EdgeStep, len(pat.Edges)),
	}
	for i := range pat.Nodes {
		out.Nodes[i] = pat.Nodes[len(pat.Nodes)-1-i]
	}
	for i := range pat.Edges {
		e := pat.Edges[len(pat.Edges)-1-i]
		e.Dir = e.Dir.flip()
		out.Edges[i] = e
	}
	return out
}

// resolvePred works out, once per query, the form of the value that
// matchNode compares per node visited: norm= against the normalized
// value, label~ / norm~ / source~ against the lower-cased one.
func resolvePred(p Pred) Pred {
	switch {
	case p.Op == OpEq && p.Field == FieldNorm:
		p.Value = textproc.NormalizeTerm(p.Value)
	case p.Op == OpContains && p.Field != FieldID:
		p.Value = strings.ToLower(p.Value)
	}
	return p
}

// matchNode reports whether the node at position i satisfies every
// (resolved) predicate of a step. Semantics:
//
//	id=     exact id
//	label=  case-insensitive label equality
//	norm=   node norm equals the normalized form of the value
//	source= exact source ("seed" | "fusion" | "expert")
//	X~      case-insensitive substring of the field's text
func matchNode(snap *kg.Snapshot, i int32, preds []Pred) bool {
	n := snap.At(i)
	for k := range preds {
		p := &preds[k]
		var ok bool
		switch p.Op {
		case OpEq:
			switch p.Field {
			case FieldID:
				ok = n.ID == p.Value
			case FieldLabel:
				ok = strings.EqualFold(n.Label, p.Value)
			case FieldNorm:
				ok = n.Norm == p.Value
			case FieldSource:
				ok = n.Source == p.Value
			}
		case OpContains:
			switch p.Field {
			case FieldID:
				ok = strings.Contains(n.ID, p.Value)
			case FieldLabel:
				ok = strings.Contains(snap.Dense(i).Lower, p.Value)
			case FieldNorm:
				ok = strings.Contains(n.Norm, p.Value)
			case FieldSource:
				ok = strings.Contains(n.Source, p.Value)
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
