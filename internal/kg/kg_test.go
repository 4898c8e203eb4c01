package kg

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestNewGraphRoot(t *testing.T) {
	g := New("COVID-19", nil)
	root := g.Root()
	if root.Label != "COVID-19" || root.Parent != "" {
		t.Fatalf("root = %+v", root)
	}
	if g.Size() != 1 {
		t.Fatalf("size = %d", g.Size())
	}
}

func TestSeedCOVIDLayout(t *testing.T) {
	g := SeedCOVID(nil)
	if g.Size() < 10 || g.Size() > 20 {
		t.Fatalf("seed size = %d, paper wants 10-20", g.Size())
	}
	kids, err := g.Children(g.RootID())
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, k := range kids {
		labels[k.Label] = true
	}
	for _, want := range []string{"Vaccines", "Transmission", "Treatment", "Side effects"} {
		if !labels[want] {
			t.Errorf("seed missing %q", want)
		}
	}
	g.Walk(func(n Node, _ int) bool {
		if n.Source != SourceSeed {
			t.Errorf("seed node %q has source %q", n.Label, n.Source)
		}
		return true
	})
}

func TestAddNodeAndChildren(t *testing.T) {
	g := New("root", nil)
	a, err := g.AddNode(g.RootID(), "Vaccines", SourceSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.AddNode(a.ID, "Pfizer", SourceFusion, "paper-1")
	if err != nil {
		t.Fatal(err)
	}
	if b.Parent != a.ID {
		t.Fatalf("parent = %q", b.Parent)
	}
	kids, _ := g.Children(a.ID)
	if len(kids) != 1 || kids[0].Label != "Pfizer" {
		t.Fatalf("children = %v", kids)
	}
	if len(kids[0].Papers) != 1 || kids[0].Papers[0] != "paper-1" {
		t.Fatalf("papers = %v", kids[0].Papers)
	}
	if _, err := g.AddNode("missing", "X", SourceSeed); !errors.Is(err, ErrNodeNotFound) {
		t.Fatal("missing parent should error")
	}
}

func TestAddNodeDuplicateMerges(t *testing.T) {
	g := New("root", nil)
	a, _ := g.AddNode(g.RootID(), "Vaccines", SourceSeed)
	_, err := g.AddNode(g.RootID(), "Vaccine(s)", SourceFusion, "p2") // same norm
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
	if g.Size() != 2 {
		t.Fatalf("size = %d", g.Size())
	}
	n, _ := g.Node(a.ID)
	if len(n.Papers) != 1 || n.Papers[0] != "p2" {
		t.Fatalf("provenance not merged: %v", n.Papers)
	}
}

func TestPathToRoot(t *testing.T) {
	g := New("COVID-19", nil)
	a, _ := g.AddNode(g.RootID(), "Clinical presentation", SourceSeed)
	b, _ := g.AddNode(a.ID, "Symptoms", SourceSeed)
	c, _ := g.AddNode(b.ID, "Fever", SourceFusion)
	path, err := g.PathToRoot(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"COVID-19", "Clinical presentation", "Symptoms", "Fever"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i, w := range want {
		if path[i].Label != w {
			t.Fatalf("path[%d] = %q, want %q", i, path[i].Label, w)
		}
	}
}

func TestRemoveLeaf(t *testing.T) {
	g := New("root", nil)
	a, _ := g.AddNode(g.RootID(), "A", SourceSeed)
	b, _ := g.AddNode(a.ID, "B", SourceSeed)
	if err := g.RemoveLeaf(a.ID); !errors.Is(err, ErrHasChildren) {
		t.Fatal("non-leaf removal should fail")
	}
	if err := g.RemoveLeaf(b.ID); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveLeaf(a.ID); err != nil {
		t.Fatal(err)
	}
	if g.Size() != 1 {
		t.Fatalf("size = %d", g.Size())
	}
	if err := g.RemoveLeaf(g.RootID()); err == nil {
		t.Fatal("root removal should fail")
	}
}

func TestSearchWithPaths(t *testing.T) {
	g := SeedCOVID(nil)
	hits := search(t, g, "vaccines")
	if len(hits) == 0 {
		t.Fatal("no hits for vaccines")
	}
	top := hits[0]
	if !strings.Contains(strings.ToLower(top.Node.Label), "vaccine") {
		t.Fatalf("top hit = %q", top.Node.Label)
	}
	if top.Path[0].Label != "COVID-19" {
		t.Fatalf("path root = %q", top.Path[0].Label)
	}
	if top.Path[len(top.Path)-1].ID != top.Node.ID {
		t.Fatal("path must end at the hit")
	}
	// stemming: "vaccination" matches "Vaccines"
	if len(search(t, g, "vaccination")) == 0 {
		t.Fatal("stemmed query found nothing")
	}
	if search(t, g, "") != nil {
		t.Fatal("empty query")
	}
	if len(search(t, g, "zebra")) != 0 {
		t.Fatal("absent term matched")
	}
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	g := New("r", nil)
	a, _ := g.AddNode(g.RootID(), "a", SourceSeed)
	g.AddNode(a.ID, "a1", SourceSeed)
	g.AddNode(g.RootID(), "b", SourceSeed)
	var labels []string
	g.Walk(func(n Node, depth int) bool {
		labels = append(labels, n.Label)
		return true
	})
	want := "r a a1 b"
	if got := strings.Join(labels, " "); got != want {
		t.Fatalf("walk order = %q", got)
	}
	count := 0
	g.Walk(func(Node, int) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop at %d", count)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := SeedCOVID(nil)
	a, _ := g.AddNode(g.RootID(), "Extra", SourceFusion, "p1")
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Size() != g.Size() {
		t.Fatalf("size %d vs %d", g2.Size(), g.Size())
	}
	n, err := g2.Node(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n.Label != "Extra" || len(n.Papers) != 1 {
		t.Fatalf("node = %+v", n)
	}
	// ids continue without collision after load
	b, err := g2.AddNode(g2.RootID(), "After load", SourceSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Node(b.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := FromJSON([]byte(`{"broken`)); err == nil {
		t.Fatal("bad json")
	}
	if _, err := FromJSON([]byte(`{"root":"","nodes":[]}`)); err == nil {
		t.Fatal("empty graph")
	}
}

// fixedEmbed returns deterministic embeddings placing vaccine-ish labels
// together and symptom-ish labels together.
func fixedEmbed(label string) []float64 {
	l := strings.ToLower(label)
	switch {
	case strings.Contains(l, "vac"), strings.Contains(l, "novovac"),
		strings.Contains(l, "pfizer"), strings.Contains(l, "moderna"):
		return []float64{1, 0.1, 0}
	case strings.Contains(l, "fever"), strings.Contains(l, "rash"),
		strings.Contains(l, "symptom"), strings.Contains(l, "side effect"):
		return []float64{0, 1, 0.1}
	default:
		return []float64{0.3, 0.3, 1}
	}
}

func TestFuseTermMatchUnsupervised(t *testing.T) {
	g := SeedCOVID(nil)
	f := NewFuser(g)
	sub := NewSubtree("Vaccine", "Pfizer-BioNTech", "Moderna")
	sub.Papers = []string{"paper-7"}
	res := f.Fuse(sub)
	if res.Action != ActionFused {
		t.Fatalf("action = %q (%+v)", res.Action, res)
	}
	if res.Method != MethodTerm {
		t.Fatalf("method = %q", res.Method)
	}
	if res.NewNodes != 2 {
		t.Fatalf("new nodes = %d", res.NewNodes)
	}
	// leaves landed under the seed Vaccines node
	hits := search(t, g, "Pfizer")
	if len(hits) != 1 {
		t.Fatalf("pfizer hits = %d", len(hits))
	}
	var foundVaccines bool
	for _, p := range hits[0].Path {
		if p.Label == "Vaccines" {
			foundVaccines = true
		}
	}
	if !foundVaccines {
		t.Fatalf("path = %v", hits[0].Path)
	}
	// provenance propagated
	if len(hits[0].Node.Papers) == 0 {
		t.Fatal("no provenance on fused leaf")
	}
}

func TestFuseDuplicateLeavesMergeNotDuplicate(t *testing.T) {
	g := SeedCOVID(nil)
	f := NewFuser(g)
	f.Fuse(NewSubtree("Vaccine", "Pfizer"))
	before := g.Size()
	res := f.Fuse(NewSubtree("Vaccines", "Pfizer")) // same concept again
	if res.Action != ActionFused || res.NewNodes != 0 {
		t.Fatalf("refusion = %+v", res)
	}
	if g.Size() != before {
		t.Fatal("duplicate leaf created")
	}
}

func TestFuseMultiLayerQueued(t *testing.T) {
	g := SeedCOVID(nil)
	f := NewFuser(g)
	// Side-effects → Children side-effects → Rash (the paper's example):
	// multi-layer, must wait for the expert even though the root matches.
	sub := &Subtree{
		Label: "Side effects",
		Children: []*Subtree{
			{Label: "Children side-effects", Children: []*Subtree{{Label: "Rash"}}},
		},
	}
	res := f.Fuse(sub)
	if res.Action != ActionQueued {
		t.Fatalf("action = %q", res.Action)
	}
	if res.Method != MethodTerm {
		t.Fatalf("method = %q (root does match by term)", res.Method)
	}
	pend := f.Pending()
	if len(pend) != 1 || pend[0].ID != res.ReviewID {
		t.Fatalf("pending = %+v", pend)
	}
	// nothing added yet
	if len(search(t, g, "rash")) != 0 {
		t.Fatal("subtree applied before approval")
	}
}

func TestApproveAppliesAndLearns(t *testing.T) {
	g := SeedCOVID(nil)
	f := NewFuser(g)
	sub := &Subtree{
		Label: "Side effects",
		Children: []*Subtree{
			{Label: "Children side-effects", Children: []*Subtree{{Label: "Rash"}}},
		},
	}
	res := f.Fuse(sub)
	target := g.FindByNorm("Side effects")[0]
	if err := f.Approve(res.ReviewID, target); err != nil {
		t.Fatal(err)
	}
	hits := search(t, g, "rash")
	if len(hits) != 1 {
		t.Fatalf("rash hits = %d", len(hits))
	}
	// path: COVID-19 → Side effects → Side effects? No: applySubtree adds
	// sub root under target; root label == target label normalizes equal,
	// so they merge and Children side-effects lands under target.
	var labels []string
	for _, p := range hits[0].Path {
		labels = append(labels, p.Label)
	}
	joined := strings.Join(labels, " / ")
	if !strings.Contains(joined, "Children side-effects") {
		t.Fatalf("path = %q", joined)
	}
	if f.LearnedCount() != 1 {
		t.Fatalf("learned = %d", f.LearnedCount())
	}
	// the same root label now fuses depth-2 subtrees unsupervised
	res2 := f.Fuse(NewSubtree("Side effects", "Dizziness"))
	if res2.Action != ActionFused || res2.Method != MethodLearned {
		t.Fatalf("learned fusion = %+v", res2)
	}
}

func TestRejectDiscards(t *testing.T) {
	g := SeedCOVID(nil)
	f := NewFuser(g)
	res := f.Fuse(&Subtree{Label: "Unrelated junk", Children: []*Subtree{
		{Label: "Noise", Children: []*Subtree{{Label: "More noise"}}},
	}})
	if err := f.Reject(res.ReviewID); err != nil {
		t.Fatal(err)
	}
	if len(f.Pending()) != 0 {
		t.Fatal("still pending")
	}
	if err := f.Reject(res.ReviewID); err == nil {
		t.Fatal("double reject")
	}
	if err := f.Approve(res.ReviewID, g.RootID()); err == nil {
		t.Fatal("approve after reject")
	}
}

func TestFuseEmbeddingFallbackNovoVac(t *testing.T) {
	// §4.2's NovoVac walkthrough: "Vaccine" exists, so the root matches
	// by term; but when the KG lacks a Vaccine node entirely, the new
	// vaccine's embedding locates its siblings.
	g := New("COVID-19", fixedEmbed)
	// a KG with existing vaccines but no node whose norm matches "Immunizations"
	vacc, _ := g.AddNode(g.RootID(), "Vaccines", SourceSeed)
	g.AddNode(vacc.ID, "Pfizer", SourceSeed)
	g.AddNode(vacc.ID, "Moderna", SourceSeed)
	g.AddNode(g.RootID(), "Symptoms", SourceSeed)

	f := NewFuser(g)
	f.Threshold = 0.9
	// root "Immunizations" has no term match; its embedding is near the
	// vaccine cluster → high-confidence embedding match fuses directly
	res := f.Fuse(NewSubtree("Immunization shots", "NovoVac"))
	switch res.Action {
	case ActionFused:
		if res.Method != MethodEmbedding {
			t.Fatalf("method = %q", res.Method)
		}
		if len(search(t, g, "NovoVac")) != 1 {
			t.Fatal("NovoVac not inserted")
		}
	case ActionQueued:
		// acceptable only if confidence fell below threshold; the
		// suggestion must still point into the vaccine neighbourhood
		if res.TargetID == "" {
			t.Fatalf("no suggestion: %+v", res)
		}
	default:
		t.Fatalf("action = %q", res.Action)
	}
}

func TestFuseNoEmbedderQueues(t *testing.T) {
	g := New("root", nil) // no embedder
	f := NewFuser(g)
	res := f.Fuse(NewSubtree("Completely new", "Leaf"))
	if res.Action != ActionQueued || res.Method != MethodNone {
		t.Fatalf("res = %+v", res)
	}
}

func TestFuseNilSubtree(t *testing.T) {
	f := NewFuser(New("r", nil))
	res := f.Fuse(nil)
	if res.Action != ActionQueued {
		t.Fatalf("res = %+v", res)
	}
}

func TestSubtreeDepthAndLeaves(t *testing.T) {
	s := NewSubtree("a", "x", "y")
	if s.Depth() != 2 {
		t.Fatalf("depth = %d", s.Depth())
	}
	deep := &Subtree{Label: "a", Children: []*Subtree{
		{Label: "b", Children: []*Subtree{{Label: "c"}}},
	}}
	if deep.Depth() != 3 {
		t.Fatalf("deep depth = %d", deep.Depth())
	}
	leaves := deep.Leaves()
	if len(leaves) != 1 || leaves[0] != "c" {
		t.Fatalf("leaves = %v", leaves)
	}
	lone := &Subtree{Label: "solo"}
	if got := lone.Leaves(); len(got) != 1 || got[0] != "solo" {
		t.Fatalf("lone leaves = %v", got)
	}
}

func TestApproveOverrideSuggestion(t *testing.T) {
	// the expert may attach somewhere other than the suggestion
	g := SeedCOVID(fixedEmbed)
	f := NewFuser(g)
	res := f.Fuse(&Subtree{Label: "Novel grouping", Children: []*Subtree{
		{Label: "Sub grouping", Children: []*Subtree{{Label: "Deep leaf"}}},
	}})
	other := g.FindByNorm("Treatment")[0]
	if err := f.Approve(res.ReviewID, other); err != nil {
		t.Fatal(err)
	}
	hits := search(t, g, "deep leaf")
	if len(hits) != 1 {
		t.Fatalf("hits = %d", len(hits))
	}
	var sawTreatment bool
	for _, p := range hits[0].Path {
		if p.Label == "Treatment" {
			sawTreatment = true
		}
	}
	if !sawTreatment {
		t.Fatalf("expert override ignored: %v", hits[0].Path)
	}
	if err := f.Approve(999, other); err == nil {
		t.Fatal("unknown review id")
	}
	if err := f.Approve(res.ReviewID, "bogus"); err == nil {
		t.Fatal("already-approved id should fail")
	}
}

func TestNodesByPaper(t *testing.T) {
	g := SeedCOVID(nil)
	f := NewFuser(g)
	f.Fuse(&Subtree{Label: "Vaccines",
		Children: []*Subtree{{Label: "VaxA"}, {Label: "VaxB"}},
		Papers:   []string{"paper-x"}})
	f.Fuse(&Subtree{Label: "Symptoms",
		Children: []*Subtree{{Label: "Brain fog"}},
		Papers:   []string{"paper-y"}})
	nodes := g.NodesByPaper("paper-x")
	if len(nodes) < 2 {
		t.Fatalf("paper-x nodes = %v", nodes)
	}
	for _, n := range nodes {
		found := false
		for _, p := range n.Papers {
			if p == "paper-x" {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %q lacks paper-x", n.Label)
		}
	}
	if got := g.NodesByPaper("nope"); got != nil {
		t.Fatalf("unknown paper = %v", got)
	}
}

// search runs SearchContext under a background context.
func search(t testing.TB, g *Graph, query string) []SearchHit {
	t.Helper()
	hits, err := g.SearchContext(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}
