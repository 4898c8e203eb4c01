package kg

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randomGraph grows a random hierarchy for property checks.
func randomGraph(t *testing.T, rng *rand.Rand, n int) *Graph {
	t.Helper()
	g := New("root", nil)
	ids := []string{g.RootID()}
	for i := 0; i < n; i++ {
		parent := ids[rng.Intn(len(ids))]
		node, err := g.AddNode(parent, fmt.Sprintf("node-%d", i), SourceFusion)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, node.ID)
	}
	return g
}

// TestWalkVisitsExactlyAllNodes: Walk must reach every node once.
func TestWalkVisitsExactlyAllNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(t, rng, rng.Intn(60))
		seen := map[string]int{}
		g.Walk(func(n Node, _ int) bool {
			seen[n.ID]++
			return true
		})
		if len(seen) != g.Size() {
			t.Fatalf("walk saw %d of %d nodes", len(seen), g.Size())
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("node %s visited %d times", id, c)
			}
		}
	}
}

// TestPathInvariants: every node's path starts at the root, ends at the
// node, and each consecutive pair is parent→child.
func TestPathInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(t, rng, 80)
	g.Walk(func(n Node, depth int) bool {
		path, err := g.PathToRoot(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		if path[0].ID != g.RootID() || path[len(path)-1].ID != n.ID {
			t.Fatalf("path endpoints wrong for %s", n.ID)
		}
		if len(path)-1 != depth {
			t.Fatalf("path length %d != depth %d for %s", len(path)-1, depth, n.ID)
		}
		for i := 1; i < len(path); i++ {
			if path[i].Parent != path[i-1].ID {
				t.Fatalf("broken parent link at %s", path[i].ID)
			}
		}
		return true
	})
}

// TestJSONRoundTripPreservesStructure on random graphs.
func TestJSONRoundTripPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(t, rng, rng.Intn(50))
		blob, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		g2, err := FromJSON(blob)
		if err != nil {
			t.Fatal(err)
		}
		if g2.Size() != g.Size() {
			t.Fatalf("size %d != %d", g2.Size(), g.Size())
		}
		g.Walk(func(n Node, _ int) bool {
			m, err := g2.Node(n.ID)
			if err != nil {
				t.Fatalf("node %s lost", n.ID)
			}
			if m.Label != n.Label || m.Parent != n.Parent || len(m.Children) != len(n.Children) {
				t.Fatalf("node %s mutated: %+v vs %+v", n.ID, m, n)
			}
			return true
		})
	}
}

// TestConcurrentFuseAndSearch: the fuser and graph must be safe under
// parallel fusion, search, and walks.
func TestConcurrentFuseAndSearch(t *testing.T) {
	g := SeedCOVID(nil)
	f := NewFuser(g)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				f.Fuse(NewSubtree("Vaccines", fmt.Sprintf("w%d-vac-%d", w, i)))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, err := g.SearchContext(context.Background(), "vaccines"); err != nil {
					t.Error(err)
					return
				}
				g.Walk(func(Node, int) bool { return true })
				if blob, err := g.MarshalJSON(); err != nil || len(blob) == 0 {
					t.Error("marshal during fusion failed")
					return
				}
			}
		}()
	}
	wg.Wait()
	// all 160 distinct leaves fused
	kids, err := g.Children(g.FindByNorm("Vaccines")[0])
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, k := range kids {
		if len(k.Label) > 2 && k.Label[0] == 'w' {
			count++
		}
	}
	if count != 160 {
		t.Fatalf("fused %d of 160 leaves", count)
	}
}
