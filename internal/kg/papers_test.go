package kg

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// addLinear is the reference provenance merge: append each paper the
// list does not already hold, found by scanning it.
func addLinear(list, papers []string) []string {
	for _, p := range papers {
		if !slices.Contains(list, p) {
			list = append(list, p)
		}
	}
	return list
}

// TestAddPapersMatchesLinearScan runs random schedules of node adds
// (fresh and fusing into an existing label), paper merges full of
// duplicates, leaf removals and a JSON round trip, and checks after every
// step that each node's Papers is exactly what the linear scan builds —
// the same ids in the same insertion order — on both sides of
// paperSetMin.
func TestAddPapersMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New("root", nil)
		model := map[string][]string{g.RootID(): nil}
		randPapers := func() []string {
			out := make([]string, rng.Intn(6))
			for i := range out {
				out[i] = fmt.Sprintf("p%d", rng.Intn(60)) // a small pool: many duplicates
			}
			return out
		}
		randNode := func() string {
			ids := make([]string, 0, len(model))
			for id := range model {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			return ids[rng.Intn(len(ids))]
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				papers := randPapers()
				n, err := g.AddNode(randNode(), fmt.Sprintf("label zq%c", 'a'+rng.Intn(12)), SourceFusion, papers...)
				if err != nil && !errors.Is(err, ErrDuplicate) {
					t.Fatal(err)
				}
				model[n.ID] = addLinear(model[n.ID], papers)
			case op < 9:
				id, papers := randNode(), randPapers()
				if err := g.AddPapers(id, papers...); err != nil {
					t.Fatal(err)
				}
				model[id] = addLinear(model[id], papers)
			default:
				id := randNode()
				if err := g.RemoveLeaf(id); err == nil {
					delete(model, id)
				}
			}
			if step == 200 {
				blob, err := g.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if g, err = FromJSON(blob); err != nil {
					t.Fatal(err)
				}
			}
			if g.Size() != len(model) {
				t.Fatalf("seed %d step %d: %d nodes, model has %d", seed, step, g.Size(), len(model))
			}
			for id, want := range model {
				n, err := g.Node(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(n.Papers) != len(want) || (len(want) > 0 && !reflect.DeepEqual(n.Papers, want)) {
					t.Fatalf("seed %d step %d: node %s papers %v, linear scan gives %v", seed, step, id, n.Papers, want)
				}
			}
		}
	}
}

// nodesByPaperRef is the filter NodesByPaper answered with before it
// walked in place: Walk's copies of every node, kept when they cite pub.
func nodesByPaperRef(g *Graph, pub string) []Node {
	var out []Node
	g.Walk(func(n Node, _ int) bool {
		if slices.Contains(n.Papers, pub) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// paperGraph builds a graph of n nodes, each citing 40 papers, where
// "needle" is cited only by the first two nodes added.
// (n ≤ 676 keeps the two-letter labels distinct.)
func paperGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := New("root", nil)
	parent := g.RootID()
	for i := 0; i < n; i++ {
		papers := make([]string, 40)
		for j := range papers {
			papers[j] = fmt.Sprintf("p%d", (i+j)%97)
		}
		if i < 2 {
			papers = append(papers, "needle")
		}
		label := fmt.Sprintf("concept zq%c%cx", 'a'+i/26%26, 'a'+i%26) // digits and stopwords would normalize away
		node, err := g.AddNode(parent, label, SourceFusion, papers...)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			parent = node.ID
		}
	}
	return g
}

// TestNodesByPaperMatchesWalkFilter pins NodesByPaper to the Walk
// filter — the same nodes in the same order — and its allocations to
// the matches: a graph four times larger with the same two matches
// costs the same.
func TestNodesByPaperMatchesWalkFilter(t *testing.T) {
	small, large := paperGraph(t, 100), paperGraph(t, 400)
	for _, g := range []*Graph{small, large} {
		for _, pub := range []string{"needle", "p0", "p42", "p96", "absent"} {
			if got, want := g.NodesByPaper(pub), nodesByPaperRef(g, pub); !reflect.DeepEqual(got, want) {
				t.Fatalf("NodesByPaper(%q) = %d nodes, Walk filter %d", pub, len(got), len(want))
			}
		}
	}
	allocs := func(g *Graph) float64 {
		return testing.AllocsPerRun(20, func() { g.NodesByPaper("needle") })
	}
	a, b := allocs(small), allocs(large)
	if a != b {
		t.Fatalf("NodesByPaper allocates %v on 100 nodes, %v on 400, for the same 2 matches", a, b)
	}
	if a > 8 {
		t.Fatalf("NodesByPaper allocates %v for 2 matches, want ≤ 8", a)
	}
}
