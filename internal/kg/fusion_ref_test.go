package kg

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"covidkg/internal/mlcore"
	"covidkg/internal/textproc"
)

// refFuser is the fuser as it was before label vectors were cached
// (commit db04433): every embedding-matching scan walks the graph
// through the public, copying Walk and re-embeds every node label it
// meets. TestFuseMatchesReference holds Fuser to it. Do not optimise it.
type refFuser struct {
	g         *Graph
	Threshold float64
	queue     []*ReviewItem
	nextRev   int
	learned   map[string]string
}

func newRefFuser(g *Graph) *refFuser {
	return &refFuser{g: g, Threshold: 0.85, learned: map[string]string{}}
}

func (f *refFuser) matchRoot(label string) (nodeID, method string, conf float64) {
	norm := textproc.NormalizeTerm(label)
	if id, ok := f.learned[norm]; ok {
		if _, err := f.g.Node(id); err == nil {
			return id, MethodLearned, 1
		}
		delete(f.learned, norm)
	}
	if ids := f.g.FindByNorm(label); len(ids) > 0 {
		return ids[0], MethodTerm, 1
	}
	return f.embedMatch(label)
}

func (f *refFuser) embedMatch(label string) (string, string, float64) {
	f.g.mu.RLock()
	embed := f.g.embed
	f.g.mu.RUnlock()
	if embed == nil {
		return "", MethodNone, 0
	}
	vec := embed(label)
	if vec == nil {
		return "", MethodNone, 0
	}
	bestID, bestSim := "", -1.0
	f.g.Walk(func(n Node, _ int) bool {
		nv := embed(n.Label)
		if nv == nil {
			return true
		}
		if sim := mlcore.CosineSimilarity(vec, nv); sim > bestSim ||
			(sim == bestSim && n.ID < bestID) {
			bestID, bestSim = n.ID, sim
		}
		return true
	})
	if bestID == "" {
		return "", MethodNone, 0
	}
	return bestID, MethodEmbedding, bestSim
}

func (f *refFuser) leafEmbedMatch(sub *Subtree) (string, float64) {
	f.g.mu.RLock()
	embed := f.g.embed
	f.g.mu.RUnlock()
	if embed == nil {
		return "", 0
	}
	bestParent, bestSim := "", -1.0
	for _, leaf := range sub.Leaves() {
		lv := embed(leaf)
		if lv == nil {
			continue
		}
		f.g.Walk(func(n Node, _ int) bool {
			if n.Parent == "" {
				return true
			}
			nv := embed(n.Label)
			if nv == nil {
				return true
			}
			if sim := mlcore.CosineSimilarity(lv, nv); sim > bestSim {
				bestParent, bestSim = n.Parent, sim
			}
			return true
		})
	}
	return bestParent, bestSim
}

func (f *refFuser) Fuse(sub *Subtree) FusionResult {
	if sub == nil || sub.Label == "" {
		return FusionResult{Action: ActionQueued, Method: MethodNone}
	}
	nodeID, method, conf := f.matchRoot(sub.Label)
	if sub.Depth() > 2 {
		return f.enqueue(sub, nodeID, method, conf)
	}
	trusted := method == MethodTerm || method == MethodLearned ||
		(method == MethodEmbedding && conf >= f.Threshold)
	if trusted && nodeID != "" {
		return f.fuseLeaves(sub, nodeID, method, conf)
	}
	if parentID, sim := f.leafEmbedMatch(sub); parentID != "" {
		return f.enqueue(sub, parentID, MethodLeafEmbed, sim)
	}
	return f.enqueue(sub, "", MethodNone, 0)
}

func (f *refFuser) fuseLeaves(sub *Subtree, targetID, method string, conf float64) FusionResult {
	added := 0
	for _, c := range sub.Children {
		papers := append(append([]string(nil), sub.Papers...), c.Papers...)
		_, err := f.g.AddNode(targetID, c.Label, SourceFusion, papers...)
		switch {
		case err == nil:
			added++
		case errors.Is(err, ErrDuplicate):
		default:
			return f.enqueue(sub, targetID, method, conf)
		}
	}
	f.g.AddPapers(targetID, sub.Papers...)
	return FusionResult{
		Action: ActionFused, Method: method, TargetID: targetID,
		Confidence: conf, NewNodes: added,
	}
}

func (f *refFuser) enqueue(sub *Subtree, suggested, method string, conf float64) FusionResult {
	f.nextRev++
	item := &ReviewItem{
		ID: f.nextRev, Sub: sub, SuggestedID: suggested,
		Method: method, Confidence: conf, Status: ReviewPending,
	}
	f.queue = append(f.queue, item)
	return FusionResult{
		Action: ActionQueued, Method: method, TargetID: suggested,
		Confidence: conf, ReviewID: item.ID,
	}
}

func (f *refFuser) Pending() []ReviewItem {
	var out []ReviewItem
	for _, it := range f.queue {
		if it.Status == ReviewPending {
			out = append(out, *it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (f *refFuser) Approve(reviewID int, targetID string) error {
	item := f.findPending(reviewID)
	if item == nil {
		return fmt.Errorf("kg: review %d not pending", reviewID)
	}
	if _, err := f.g.Node(targetID); err != nil {
		return err
	}
	if err := f.applySubtree(item.Sub, targetID); err != nil {
		return err
	}
	item.Status = ReviewApproved
	f.learned[textproc.NormalizeTerm(item.Sub.Label)] = targetID
	return nil
}

func (f *refFuser) Reject(reviewID int) error {
	item := f.findPending(reviewID)
	if item == nil {
		return fmt.Errorf("kg: review %d not pending", reviewID)
	}
	item.Status = ReviewRejected
	return nil
}

func (f *refFuser) findPending(id int) *ReviewItem {
	for _, it := range f.queue {
		if it.ID == id && it.Status == ReviewPending {
			return it
		}
	}
	return nil
}

func (f *refFuser) applySubtree(sub *Subtree, targetID string) error {
	if tn, err := f.g.Node(targetID); err == nil &&
		tn.Norm == textproc.NormalizeTerm(sub.Label) {
		f.g.AddPapers(targetID, sub.Papers...)
		for _, c := range sub.Children {
			if err := f.applySubtree(c, targetID); err != nil {
				return err
			}
		}
		return nil
	}
	n, err := f.g.AddNode(targetID, sub.Label, SourceExpert, sub.Papers...)
	if err != nil && !errors.Is(err, ErrDuplicate) {
		return err
	}
	for _, c := range sub.Children {
		if err := f.applySubtree(c, n.ID); err != nil {
			return err
		}
	}
	return nil
}

// quantEmbed is a deterministic embedder built to stress the matchers'
// edge cases: vectors over {-1, 0, 1}^4, so exact similarity ties are
// common and antiparallel pairs score exactly -1 (norms 1 and 2 are
// exact) — the first-strictly-greater and id tie-break rules decide
// most matches; one label in 7 does not embed (nil) and one in 11 is the
// zero vector. salt selects an unrelated assignment, so swapping
// embedders changes every label's vector.
func quantEmbed(salt uint32) EmbedFunc {
	return func(label string) []float64 {
		h := fnv.New32a()
		fmt.Fprintf(h, "%d|%s", salt, label)
		x := h.Sum32()
		switch {
		case x%7 == 0:
			return nil
		case x%11 == 0:
			return make([]float64, 4)
		}
		v := make([]float64, 4)
		for i := range v {
			v[i] = float64(int(x>>(3*i+8)%3) - 1)
		}
		return v
	}
}

// fusePair drives a Fuser and a refFuser, each over its own copy of the
// same graph, through the same operations.
type fusePair struct {
	t      *testing.T
	g, rg  *Graph
	f      *Fuser
	rf     *refFuser
	labels []string
}

func (p *fusePair) subtree(rng *rand.Rand) *Subtree {
	label := func() string { return p.labels[rng.Intn(len(p.labels))] }
	var sub *Subtree
	switch k := rng.Intn(20); {
	case k == 0: // a hub: a seed root with hundreds of new leaves
		seeds := []string{"Vaccines", "Symptoms", "Treatment", "Side effects"}
		sub = &Subtree{Label: seeds[rng.Intn(len(seeds))]}
		for i, n := 0, 100+rng.Intn(200); i < n; i++ {
			sub.Children = append(sub.Children, &Subtree{Label: fmt.Sprintf("%s %d", label(), rng.Intn(1000))})
		}
	case k == 1: // multi-layer: always queued
		sub = &Subtree{Label: label(), Children: []*Subtree{NewSubtree(label(), label(), label())}}
	case k == 2:
		sub = &Subtree{Label: label()} // a lone root is its own leaf
	default:
		sub = NewSubtree(label())
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			sub.Children = append(sub.Children, &Subtree{Label: label()})
		}
	}
	sub.Papers = []string{fmt.Sprintf("p%d", rng.Intn(50))}
	return sub
}

// check compares everything observable after one step.
func (p *fusePair) check(step string) {
	p.t.Helper()
	a, err := p.g.MarshalJSON()
	if err != nil {
		p.t.Fatal(err)
	}
	b, err := p.rg.MarshalJSON()
	if err != nil {
		p.t.Fatal(err)
	}
	if string(a) != string(b) {
		p.t.Fatalf("%s: graphs differ:\n got  %s\n want %s", step, a, b)
	}
	got, want := p.f.Pending(), p.rf.Pending()
	if len(got) != len(want) {
		p.t.Fatalf("%s: %d pending, reference %d", step, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) {
			p.t.Fatalf("%s: pending %d confidence %v, reference %v", step, g.ID, g.Confidence, w.Confidence)
		}
		g.Confidence, w.Confidence = 0, 0
		if !reflect.DeepEqual(g, w) {
			p.t.Fatalf("%s: pending item\n got  %+v\n want %+v", step, g, w)
		}
	}
}

func sameErr(a, b error) bool { return (a == nil) == (b == nil) }

// TestFuseMatchesReference: over random operation sequences on random
// graphs, the fuser answers exactly what the copying, re-embedding
// reference answers — every FusionResult (Confidence to the bit), the
// graph's JSON and the review queue after every step — across embedder
// swaps (including to nil), leaf removals, approvals and rejections.
func TestFuseMatchesReference(t *testing.T) {
	words := []string{"vaccine", "fever", "rash", "dose", "mRNA", "booster", "cough",
		"variant", "antibody", "ICU", "Pfizer", "Moderna", "NovoVac", "Symptoms",
		"Vaccines", "Treatment", "Side effects", "Transmission", "Airborne", "zinc"}
	sequences := 200
	if testing.Short() {
		sequences = 40
	}
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		embed := quantEmbed(uint32(rng.Intn(3)))
		p := &fusePair{t: t, g: SeedCOVID(embed), rg: SeedCOVID(embed)}
		p.f, p.rf = NewFuser(p.g), newRefFuser(p.rg)
		if seq%2 == 1 { // trust more embedding matches, so more fuse
			p.f.Threshold, p.rf.Threshold = 0.5, 0.5
		}
		for i := 0; i < 12; i++ {
			p.labels = append(p.labels, words[rng.Intn(len(words))]+" "+words[rng.Intn(len(words))])
		}
		p.labels = append(p.labels, words...)
		for step := 0; step < 40; step++ {
			name := fmt.Sprintf("seq %d step %d", seq, step)
			switch k := rng.Intn(20); {
			case k < 12:
				sub := p.subtree(rng)
				got, want := p.f.Fuse(sub), p.rf.Fuse(sub)
				if math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
					t.Fatalf("%s: Fuse(%q) confidence %v, reference %v", name, sub.Label, got.Confidence, want.Confidence)
				}
				if got != want {
					t.Fatalf("%s: Fuse(%q)\n got  %+v\n want %+v", name, sub.Label, got, want)
				}
			case k < 14:
				var e EmbedFunc
				if rng.Intn(4) > 0 {
					e = quantEmbed(uint32(rng.Intn(3)))
				}
				p.g.SetEmbedder(e)
				p.rg.SetEmbedder(e)
			case k < 16:
				var leaves []string
				p.rg.Walk(func(n Node, _ int) bool {
					if len(n.Children) == 0 && n.Parent != "" {
						leaves = append(leaves, n.ID)
					}
					return true
				})
				for i := 0; i < 1+rng.Intn(5) && len(leaves) > 0; i++ {
					id := leaves[rng.Intn(len(leaves))]
					if !sameErr(p.g.RemoveLeaf(id), p.rg.RemoveLeaf(id)) {
						t.Fatalf("%s: RemoveLeaf(%s) disagrees", name, id)
					}
				}
			case k < 18:
				pend := p.rf.Pending()
				if len(pend) == 0 {
					continue
				}
				it := pend[rng.Intn(len(pend))]
				target := it.SuggestedID
				if target == "" || rng.Intn(3) == 0 {
					ids := p.rg.FindByNorm(p.labels[rng.Intn(len(p.labels))])
					target = p.rg.RootID()
					if len(ids) > 0 {
						target = ids[0]
					}
				}
				if !sameErr(p.f.Approve(it.ID, target), p.rf.Approve(it.ID, target)) {
					t.Fatalf("%s: Approve(%d, %s) disagrees", name, it.ID, target)
				}
			default:
				id := 1 + rng.Intn(p.rf.nextRev+1)
				if !sameErr(p.f.Reject(id), p.rf.Reject(id)) {
					t.Fatalf("%s: Reject(%d) disagrees", name, id)
				}
			}
			p.check(name)
		}
	}
}

// TestConcurrentFuseWithEmbedderSwaps: fusers share label vectors
// across concurrent Fuse calls while the embedder is swapped and leaves
// are removed under them; once quiet, a fusion must match the
// reference's over a copy of the graph with the last embedder.
func TestConcurrentFuseWithEmbedderSwaps(t *testing.T) {
	g := SeedCOVID(quantEmbed(0))
	f := NewFuser(g)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				f.Fuse(NewSubtree(fmt.Sprintf("w%d root %d", w, i%7), "fever", fmt.Sprintf("leaf %d", i)))
				f.Fuse(NewSubtree("Vaccines", fmt.Sprintf("w%d vaccine %d", w, i)))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			g.SetEmbedder(quantEmbed(uint32(i % 3)))
			var leaf string
			g.Walk(func(n Node, _ int) bool {
				if len(n.Children) == 0 && n.Parent != "" {
					leaf = n.ID
				}
				return true
			})
			if leaf != "" {
				g.RemoveLeaf(leaf)
			}
		}
	}()
	wg.Wait()
	g.SetEmbedder(quantEmbed(1))
	blob, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	rg, err := FromJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	rg.SetEmbedder(quantEmbed(1))
	sub := NewSubtree("unseen root", "rash", "cough", "zinc dose")
	got, want := f.Fuse(sub), newRefFuser(rg).Fuse(sub)
	if got.Method != want.Method || got.TargetID != want.TargetID ||
		math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
		t.Fatalf("after concurrent fusion: got %+v, reference %+v", got, want)
	}
}
