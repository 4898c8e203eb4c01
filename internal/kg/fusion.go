package kg

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"covidkg/internal/mlcore"
	"covidkg/internal/textproc"
)

// Subtree is hierarchical knowledge extracted from table metadata,
// awaiting fusion into the KG (§4.2), e.g. Vaccine → NovoVac or
// Side-effects → Children side-effects → Rash.
type Subtree struct {
	Label    string
	Children []*Subtree
	Papers   []string // provenance
}

// NewSubtree builds a root with leaf children — the common depth-1 shape
// extracted from a header row plus its column of values.
func NewSubtree(label string, leaves ...string) *Subtree {
	t := &Subtree{Label: label}
	for _, l := range leaves {
		t.Children = append(t.Children, &Subtree{Label: l})
	}
	return t
}

// Depth returns the number of levels (a lone root has depth 1).
func (t *Subtree) Depth() int {
	max := 0
	for _, c := range t.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return 1 + max
}

// Leaves returns the labels of the subtree's leaf nodes.
func (t *Subtree) Leaves() []string {
	if len(t.Children) == 0 {
		return []string{t.Label}
	}
	var out []string
	for _, c := range t.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Match methods reported by fusion.
const (
	MethodTerm      = "term"           // normalized NLP term matching
	MethodLearned   = "learned"        // replayed expert correction
	MethodEmbedding = "embedding"      // root label embedding distance
	MethodLeafEmbed = "embedding-leaf" // leaf embeddings located siblings
	MethodNone      = "none"
)

// Fusion actions.
const (
	ActionFused  = "fused"  // merged unsupervised
	ActionQueued = "queued" // waiting for expert review
)

// FusionResult describes what happened to one subtree.
type FusionResult struct {
	Action     string
	Method     string
	TargetID   string  // matched / suggested KG node
	Confidence float64 // embedding similarity when applicable (1.0 for term)
	ReviewID   int     // set when queued
	NewNodes   int     // nodes added when fused
}

// ReviewStatus values.
const (
	ReviewPending  = "pending"
	ReviewApproved = "approved"
	ReviewRejected = "rejected"
)

// ReviewItem is one queued fusion awaiting the expert (№14 in Figure 1).
type ReviewItem struct {
	ID          int
	Sub         *Subtree
	SuggestedID string // fusion's best guess for the attachment point
	Method      string
	Confidence  float64
	Status      string
}

// Fuser performs enrichment-time fusion of extracted subtrees into the
// graph.
type Fuser struct {
	mu sync.Mutex
	g  *Graph

	// Threshold is the embedding-similarity confidence above which a
	// depth-1 subtree root match is trusted unsupervised.
	Threshold float64

	queue   []*ReviewItem
	nextRev int
	// pending indexes the queue's items awaiting review by id, so that
	// Approve and Reject find theirs without walking the queue.
	pending map[int]*ReviewItem

	// learned maps normalized subtree-root labels to the node id an
	// expert attached them to — fusion mistakes corrected once become
	// automatic (§4.2: "most of the fusion is expected to become
	// minimally supervised").
	learned map[string]string

	// vecs caches node label vectors by node id (labels never change,
	// ids are never reused) for embedder generation vecGen; scanned is
	// scan's result, reused by the next scan.
	vecs    map[string]labelVec
	vecGen  uint64
	scanned []labelVec
}

// labelVec is a node's label embedding (nil when the label does not
// embed) and its Euclidean norm, with the node's id and parent.
type labelVec struct {
	id, parent string
	v          []float64
	norm       float64
}

// cosine is mlcore.CosineSimilarity(a, b.v) with both norms in hand:
// the same float operations, so the same bits.
func cosine(a []float64, na float64, b labelVec) float64 {
	if na == 0 || b.norm == 0 {
		return 0
	}
	return mlcore.Dot(a, b.v) / (na * b.norm)
}

// NewFuser creates a fuser over g with the default confidence threshold.
func NewFuser(g *Graph) *Fuser {
	return &Fuser{g: g, Threshold: 0.85, learned: map[string]string{}, pending: map[int]*ReviewItem{}}
}

// matchRoot resolves the subtree root label against the KG: learned
// corrections first, then normalized term matching, then embedding
// distance over node labels.
func (f *Fuser) matchRoot(label string) (nodeID, method string, conf float64) {
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

// embedder returns the graph's embedding function, first dropping label
// vectors computed by a function SetEmbedder has since replaced.
func (f *Fuser) embedder() EmbedFunc {
	f.g.mu.RLock()
	embed, gen := f.g.embed, f.g.embedGen
	f.g.mu.RUnlock()
	if f.vecs == nil || gen != f.vecGen {
		f.vecs, f.vecGen = map[string]labelVec{}, gen
	}
	return embed
}

// scan lists the label vectors of every live node whose label embeds,
// depth-first from the root with children in insertion order, under one
// read lock, embedding a label the first time a scan meets its node.
// The list is valid until the next scan; the caller holds f.mu.
func (f *Fuser) scan(embed EmbedFunc) []labelVec {
	f.scanned = f.scanned[:0]
	f.g.mu.RLock()
	defer f.g.mu.RUnlock()
	f.g.walk(f.g.rootID, 0, func(n *Node, _ int) bool {
		nv, ok := f.vecs[n.ID]
		if !ok {
			v := embed(n.Label)
			nv = labelVec{n.ID, n.Parent, v, mlcore.Norm2(v)}
			f.vecs[n.ID] = nv
		}
		if nv.v != nil {
			f.scanned = append(f.scanned, nv)
		}
		return true
	})
	return f.scanned
}

// embedMatch finds the KG node whose label embedding is nearest to
// label's embedding.
func (f *Fuser) embedMatch(label string) (string, string, float64) {
	embed := f.embedder()
	if embed == nil {
		return "", MethodNone, 0
	}
	vec := embed(label)
	if vec == nil {
		return "", MethodNone, 0
	}
	norm := mlcore.Norm2(vec)
	bestID, bestSim := "", -1.0
	for _, n := range f.scan(embed) {
		if sim := cosine(vec, norm, n); sim > bestSim ||
			(sim == bestSim && n.id < bestID) {
			bestID, bestSim = n.id, sim
		}
	}
	if bestID == "" {
		return "", MethodNone, 0
	}
	return bestID, MethodEmbedding, bestSim
}

// leafEmbedMatch finds where the subtree's leaves would live: the parent
// of the node most similar to the leaves' mean embedding — the NovoVac
// path of §4.2 (an unseen vaccine matches existing vaccines, so the new
// category belongs beside them).
func (f *Fuser) leafEmbedMatch(sub *Subtree) (string, float64) {
	embed := f.embedder()
	if embed == nil {
		return "", 0
	}
	var nodes []labelVec
	bestParent, bestSim := "", -1.0
	for _, leaf := range sub.Leaves() {
		lv := embed(leaf)
		if lv == nil {
			continue
		}
		if nodes == nil { // scan once, and only if some leaf embeds
			nodes = f.scan(embed)
		}
		norm := mlcore.Norm2(lv)
		for _, n := range nodes {
			if n.parent == "" {
				continue
			}
			if sim := cosine(lv, norm, n); sim > bestSim {
				bestParent, bestSim = n.parent, sim
			}
		}
	}
	return bestParent, bestSim
}

// Fuse integrates one extracted subtree per the §4.2 rules:
//
//   - depth-2 subtrees (root + leaves) whose root matches a KG node by
//     term/learned matching, or by embedding with confidence above the
//     threshold, fuse unsupervised: their leaves merge into the matched
//     node's children;
//   - deeper subtrees, and subtrees needing a brand-new node, queue for
//     expert review with the fuser's best suggestion attached.
func (f *Fuser) Fuse(sub *Subtree) FusionResult {
	f.mu.Lock()
	defer f.mu.Unlock()
	if sub == nil || sub.Label == "" {
		return FusionResult{Action: ActionQueued, Method: MethodNone}
	}

	nodeID, method, conf := f.matchRoot(sub.Label)

	// multi-layer subtrees always see the expert, even with a perfect
	// root match ("Children side-effects" must stay a separate category)
	if sub.Depth() > 2 {
		return f.enqueue(sub, nodeID, method, conf)
	}

	trusted := method == MethodTerm || method == MethodLearned ||
		(method == MethodEmbedding && conf >= f.Threshold)
	if trusted && nodeID != "" {
		return f.fuseLeaves(sub, nodeID, method, conf)
	}

	// No trustworthy root match: try locating siblings by leaf
	// embeddings and suggest inserting the new category beside them.
	if parentID, sim := f.leafEmbedMatch(sub); parentID != "" {
		return f.enqueue(sub, parentID, MethodLeafEmbed, sim)
	}
	return f.enqueue(sub, "", MethodNone, 0)
}

// fuseLeaves merges the subtree's immediate children into target.
func (f *Fuser) fuseLeaves(sub *Subtree, targetID, method string, conf float64) FusionResult {
	added := 0
	for _, c := range sub.Children {
		papers := append(append([]string(nil), sub.Papers...), c.Papers...)
		_, err := f.g.addNode(targetID, c.Label, SourceFusion, papers)
		switch {
		case err == nil:
			added++
		case errors.Is(err, ErrDuplicate):
			// concept already present; provenance was merged
		default:
			// parent disappeared under us; requeue for the expert
			return f.enqueue(sub, targetID, method, conf)
		}
	}
	f.g.AddPapers(targetID, sub.Papers...)
	return FusionResult{
		Action: ActionFused, Method: method, TargetID: targetID,
		Confidence: conf, NewNodes: added,
	}
}

func (f *Fuser) enqueue(sub *Subtree, suggested, method string, conf float64) FusionResult {
	f.nextRev++
	item := &ReviewItem{
		ID: f.nextRev, Sub: sub, SuggestedID: suggested,
		Method: method, Confidence: conf, Status: ReviewPending,
	}
	f.queue = append(f.queue, item)
	f.pending[item.ID] = item
	return FusionResult{
		Action: ActionQueued, Method: method, TargetID: suggested,
		Confidence: conf, ReviewID: item.ID,
	}
}

// Pending returns copies of the items awaiting review, oldest first.
func (f *Fuser) Pending() []ReviewItem {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []ReviewItem
	for _, it := range f.queue {
		if it.Status == ReviewPending {
			out = append(out, *it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Approve applies a queued subtree under targetID (the expert may
// override the suggestion) and records the correction so the same root
// label fuses automatically next time.
func (f *Fuser) Approve(reviewID int, targetID string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	item := f.pending[reviewID]
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
	delete(f.pending, reviewID)
	// learn the correction: next time this root label appears, fusion is
	// unsupervised
	f.learned[textproc.NormalizeTerm(item.Sub.Label)] = targetID
	return nil
}

// Reject discards a queued subtree.
func (f *Fuser) Reject(reviewID int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	item := f.pending[reviewID]
	if item == nil {
		return fmt.Errorf("kg: review %d not pending", reviewID)
	}
	item.Status = ReviewRejected
	delete(f.pending, reviewID)
	return nil
}

// applySubtree attaches the whole subtree under target, recursively.
// The subtree root becomes a child of target unless it names the target
// itself or an existing child with the same normalized label (then they
// merge instead of nesting a duplicate).
func (f *Fuser) applySubtree(sub *Subtree, targetID string) error {
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
	id, err := f.g.addNode(targetID, sub.Label, SourceExpert, sub.Papers)
	if err != nil && !errors.Is(err, ErrDuplicate) {
		return err
	}
	for _, c := range sub.Children {
		if err := f.applySubtree(c, id); err != nil {
			return err
		}
	}
	return nil
}

// LearnedCount reports how many corrections the fuser has memorized.
func (f *Fuser) LearnedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.learned)
}
