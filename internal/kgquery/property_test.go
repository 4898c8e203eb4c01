package kgquery

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"covidkg/internal/kg"
)

// randomGraph grows a randomized hierarchy: labels drawn from a small
// vocabulary with numeric suffixes so normalized forms collide across
// subtrees (multi-id byNorm postings, like repeated fusion of the same
// concept under different parents), random sources and provenance, and
// occasional leaf removals so the shape is not purely additive.
func randomGraph(r *rand.Rand, n int) *kg.Graph {
	bases := []string{
		"vaccine", "variant", "symptom", "treatment", "trial", "dose",
		"antibody", "protein", "mutation", "risk", "therapy", "cohort",
	}
	sources := []string{kg.SourceSeed, kg.SourceFusion, kg.SourceExpert}
	g := kg.New("root", nil)
	ids := []string{g.RootID()}
	for len(ids) < n {
		parent := ids[r.Intn(len(ids))]
		label := bases[r.Intn(len(bases))] + " " + strconv.Itoa(r.Intn(5))
		var papers []string
		for p := 0; p < r.Intn(4); p++ {
			papers = append(papers, "p"+strconv.Itoa(r.Intn(20)))
		}
		node, err := g.AddNode(parent, label, sources[r.Intn(len(sources))], papers...)
		if err != nil {
			continue // duplicate norm under this parent: provenance merged
		}
		ids = append(ids, node.ID)
		if r.Intn(10) == 0 && len(ids) > 2 {
			// drop a random node if it happens to be a removable leaf
			victim := ids[1+r.Intn(len(ids)-1)]
			if g.RemoveLeaf(victim) == nil {
				for i, id := range ids {
					if id == victim {
						ids = append(ids[:i], ids[i+1:]...)
						break
					}
				}
			}
		}
	}
	return g
}

// randomQuery builds a syntactically valid random pattern referencing
// labels that (mostly) exist in the graph.
func randomQuery(r *rand.Rand, g *kg.Graph) *Query {
	bases := []string{"vaccine", "variant", "symptom", "treatment", "trial", "dose"}
	snap := g.Snapshot()
	ids := snap.IDs()

	randPreds := func() []Pred {
		var preds []Pred
		switch r.Intn(5) {
		case 0: // unconstrained
		case 1:
			n, _ := snap.Node(ids[r.Intn(len(ids))])
			preds = append(preds, Pred{Field: FieldNorm, Op: OpEq, Value: n.Label})
		case 2:
			preds = append(preds, Pred{Field: FieldLabel, Op: OpContains, Value: bases[r.Intn(len(bases))]})
		case 3:
			preds = append(preds, Pred{Field: FieldSource, Op: OpEq,
				Value: []string{kg.SourceSeed, kg.SourceFusion, kg.SourceExpert}[r.Intn(3)]})
		case 4:
			n, _ := snap.Node(ids[r.Intn(len(ids))])
			preds = append(preds, Pred{Field: FieldID, Op: OpEq, Value: n.ID})
		}
		if r.Intn(4) == 0 {
			preds = append(preds, Pred{Field: FieldNorm, Op: OpContains, Value: bases[r.Intn(len(bases))]})
		}
		return preds
	}

	steps := 1 + r.Intn(3) // 1..3 node steps
	q := &Query{Text: "random"}
	q.Pattern.Nodes = append(q.Pattern.Nodes, NodeStep{Preds: randPreds()})
	for s := 1; s < steps; s++ {
		min := 1 + r.Intn(2)
		max := min + r.Intn(3-min+1) // min..3
		q.Pattern.Edges = append(q.Pattern.Edges, EdgeStep{
			Dir: Direction(r.Intn(3)), Min: min, Max: max,
		})
		q.Pattern.Nodes = append(q.Pattern.Nodes, NodeStep{Preds: randPreds()})
	}
	return q
}

// TestPropertyPlannedMatchesNaive is the engine's core guarantee: for
// randomized graphs and queries, the planned, indexed, budgeted
// executor returns exactly the naive reference traversal's ranking —
// the same paths in the same order with bit-identical aggregates — and
// any window of it on request.
func TestPropertyPlannedMatchesNaive(t *testing.T) {
	graphs := 25
	queriesPer := 4
	if testing.Short() {
		graphs = 8
	}
	for gi := 0; gi < graphs; gi++ {
		r := rand.New(rand.NewSource(int64(1000 + gi)))
		g := randomGraph(r, 40+r.Intn(50))
		snap := g.Snapshot()
		for qi := 0; qi < queriesPer; qi++ {
			q := randomQuery(r, g)
			assertPlannedMatchesNaive(t, r, snap, q, fmt.Sprintf("graph %d query %d", gi, qi))
		}
	}
}

func assertPlannedMatchesNaive(t *testing.T, r *rand.Rand, snap *kg.Snapshot, q *Query, tag string) {
	t.Helper()
	plan := Compile(q, snap)
	opts := Options{Limit: MaxLimit, MaxExpansions: 50_000_000}
	planned, err := plan.Execute(context.Background(), snap, opts)
	if err != nil {
		t.Fatalf("%s: planned: %v (pattern %+v)", tag, err, q.Pattern)
	}
	if planned.Truncated {
		t.Fatalf("%s: planned result truncated; raise test budgets", tag)
	}
	naive, err := NaiveExecute(context.Background(), snap, q)
	if err != nil {
		t.Fatalf("%s: naive: %v", tag, err)
	}
	total := len(naive.Paths)
	if planned.Total != total {
		t.Fatalf("%s: planned total %d, naive found %d (pattern %+v)", tag, planned.Total, total, q.Pattern)
	}
	assertSameRanking(t, tag, q, planned.Paths, naive.Paths)

	// a page, a random window inside the ranking, and one that may
	// overrun it
	windows := [][2]int{{0, 20}, {r.Intn(total + 1), r.Intn(total + 1)}, {r.Intn(total + 3), 1 + r.Intn(total+3)}}
	for _, w := range windows {
		from, count := w[0], w[1]
		win, err := plan.ExecuteWindow(context.Background(), snap, opts, from, count)
		if err != nil {
			t.Fatalf("%s: window [%d,+%d): %v", tag, from, count, err)
		}
		if win.Total != total || win.Expansions != planned.Expansions || win.Truncated {
			t.Fatalf("%s: window [%d,+%d): total %d expansions %d truncated %v, want %d / %d / false",
				tag, from, count, win.Total, win.Expansions, win.Truncated, total, planned.Expansions)
		}
		lo, hi := min(from, total), min(from+count, total)
		assertSameRanking(t, fmt.Sprintf("%s window [%d,+%d)", tag, from, count), q, win.Paths, naive.Paths[lo:hi])
	}
}

// assertSameRanking demands the same sequence, node for node and bit
// for bit.
func assertSameRanking(t *testing.T, tag string, q *Query, got, want []Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, naive %d (pattern %+v)", tag, len(got), len(want), q.Pattern)
	}
	for i, p := range got {
		np := want[i]
		if !slices.Equal(p.Nodes, np.Nodes) {
			t.Fatalf("%s: rank %d is %v, naive has %v (pattern %+v)",
				tag, i, pathKeyOf(p), pathKeyOf(np), q.Pattern)
		}
		if math.Float64bits(p.Confidence) != math.Float64bits(np.Confidence) ||
			math.Float64bits(p.EvidenceCoverage) != math.Float64bits(np.EvidenceCoverage) ||
			math.Float64bits(p.Score) != math.Float64bits(np.Score) ||
			p.Papers != np.Papers {
			t.Fatalf("%s: aggregates diverge for %v: planned %+v naive %+v",
				tag, pathLabels(p), p, np)
		}
	}
}

// TestPropertyReversalOnly pins the planner's reversal path: queries
// whose only selective end is the last step must still match naive.
func TestPropertyReversalOnly(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(7000 + seed))
		g := randomGraph(r, 60)
		snap := g.Snapshot()
		ids := snap.IDs()
		n, _ := snap.Node(ids[r.Intn(len(ids))])
		q := &Query{
			Pattern: Pattern{
				Nodes: []NodeStep{
					{},
					{Preds: []Pred{{Field: FieldNorm, Op: OpEq, Value: n.Label}}},
				},
				Edges: []EdgeStep{{Dir: Direction(r.Intn(3)), Min: 1, Max: 3}},
			},
			Text: "reversal",
		}
		plan := Compile(q, snap)
		if !plan.Reversed {
			t.Fatalf("seed %d: plan not reversed: %+v", seed, plan)
		}
		assertPlannedMatchesNaive(t, r, snap, q, fmt.Sprintf("reversal seed %d", seed))
	}
}

// TestPropertyTwoVariableEdges covers the one shape that can reach a
// node sequence twice: two variable-length edges split the same chain
// at different middles, so the executor must deduplicate — forwards and
// (selective last step) reversed.
func TestPropertyTwoVariableEdges(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(9000 + seed))
		g := randomGraph(r, 40+r.Intn(30))
		snap := g.Snapshot()
		ids := snap.IDs()
		n, _ := snap.Node(ids[r.Intn(len(ids))])
		ends := [2][]Pred{nil, {{Field: FieldNorm, Op: OpEq, Value: n.Label}}}
		if seed%2 == 0 {
			ends[0] = []Pred{{Field: FieldSource, Op: OpEq, Value: kg.SourceFusion}}
		}
		q := &Query{
			Pattern: Pattern{
				Nodes: []NodeStep{{Preds: ends[seed%2]}, {}, {Preds: ends[1-seed%2]}},
				Edges: []EdgeStep{
					{Dir: Direction(r.Intn(3)), Min: 1, Max: 2 + r.Intn(2)},
					{Dir: Direction(r.Intn(3)), Min: 1, Max: 2 + r.Intn(2)},
				},
			},
			Text: "two variable edges",
		}
		assertPlannedMatchesNaive(t, r, snap, q, fmt.Sprintf("two-edge seed %d", seed))
	}
}
