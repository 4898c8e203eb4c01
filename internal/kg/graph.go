// Package kg implements the COVIDKG knowledge graph (§4): an expert-
// seeded hierarchical graph of medical concepts, stored as JSON,
// searchable with path highlighting, and enriched by fusing subtrees
// extracted from table metadata. Fusion matches extracted roots to KG
// nodes by normalized NLP term matching with an embedding-driven
// fallback for unseen terms, routes multi-layer subtrees and new-node
// insertions to a human review queue (№14 in Figure 1), and learns from
// expert corrections so recurring fusions become unsupervised.
package kg

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"covidkg/internal/metrics"
	"covidkg/internal/textproc"
)

// Errors returned by graph operations.
var (
	ErrNodeNotFound = errors.New("kg: node not found")
	ErrHasChildren  = errors.New("kg: node still has children")
	ErrDuplicate    = errors.New("kg: duplicate child label")
)

// Node sources.
const (
	SourceSeed   = "seed"   // expert initial layout (№1 in Figure 1)
	SourceFusion = "fusion" // unsupervised enrichment
	SourceExpert = "expert" // approved through the review queue
)

// Node is one concept in the hierarchy.
type Node struct {
	ID       string   `json:"id"`
	Label    string   `json:"label"`
	Norm     string   `json:"norm"` // normalized label (§4.2 term matching key)
	Parent   string   `json:"parent,omitempty"`
	Children []string `json:"children,omitempty"`
	Papers   []string `json:"papers,omitempty"` // provenance publication ids
	Source   string   `json:"source"`
}

// EmbedFunc maps a label to its embedding vector (nil when unknown). It
// must be a pure function of the label until SetEmbedder replaces it,
// and must not write to a slice it returned: fusion embeds each node
// label once and keeps the vector.
type EmbedFunc func(label string) []float64

// Graph is a thread-safe hierarchical knowledge graph.
type Graph struct {
	mu     sync.RWMutex
	nodes  map[string]*Node
	byNorm map[string][]string
	rootID string
	seq    int
	embed  EmbedFunc
	// embedGen counts SetEmbedder calls; see Fuser.vecs.
	embedGen uint64

	// gen counts mutations; snap caches the last Snapshot built, valid
	// while snap.gen == gen.
	gen  uint64
	snap *Snapshot
	met  *metrics.Registry // receives the snapshot build counters

	// paperSets holds the ids of each Papers list longer than
	// paperSetMin as a set, built on the first merge past that length
	// (after FromJSON too) and dropped with its node, so merging into a
	// node citing thousands of papers is not a scan of them all.
	paperSets map[string]map[string]struct{}
}

const paperSetMin = 16 // below this, a scan is cheaper than a set

// New creates a graph with a root node of the given label. embed may be
// nil (embedding-driven matching then reports no matches).
func New(rootLabel string, embed EmbedFunc) *Graph {
	g := &Graph{
		nodes:     map[string]*Node{},
		byNorm:    map[string][]string{},
		embed:     embed,
		met:       metrics.Default(),
		paperSets: map[string]map[string]struct{}{},
	}
	root := &Node{
		ID:     g.nextID(),
		Label:  rootLabel,
		Norm:   textproc.NormalizeTerm(rootLabel),
		Source: SourceSeed,
	}
	g.nodes[root.ID] = root
	g.byNorm[root.Norm] = []string{root.ID}
	g.rootID = root.ID
	return g
}

// SetEmbedder installs (or replaces) the embedding function; label
// vectors fusion computed with the previous one are discarded.
func (g *Graph) SetEmbedder(embed EmbedFunc) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.embed = embed
	g.embedGen++
}

// SetMetrics directs the graph's snapshot build counters to reg instead
// of the process-default registry; nil keeps the current one.
func (g *Graph) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.met = reg
}

func (g *Graph) nextID() string {
	g.seq++
	return "n" + strconv.Itoa(g.seq)
}

// Root returns a copy of the root node.
func (g *Graph) Root() Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return *g.nodes[g.rootID]
}

// RootID returns the root node id.
func (g *Graph) RootID() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.rootID
}

// Node returns a copy of the node with the given id.
func (g *Graph) Node(id string) (Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return Node{}, fmt.Errorf("%w: %s", ErrNodeNotFound, id)
	}
	return copyNode(n), nil
}

func copyNode(n *Node) Node {
	out := *n
	out.Children = append([]string(nil), n.Children...)
	out.Papers = append([]string(nil), n.Papers...)
	return out
}

// Size returns the node count.
func (g *Graph) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// AddNode inserts a child under parent. Inserting a child whose
// normalized label already exists under the same parent returns the
// existing node (labels fuse rather than duplicate) with ErrDuplicate.
func (g *Graph) AddNode(parentID, label, source string, papers ...string) (Node, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, err := g.addNodeLocked(parentID, label, source, papers)
	return copyNode(n), err
}

// addNode is AddNode returning only the id, copying nothing out.
func (g *Graph) addNode(parentID, label, source string, papers []string) (string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, err := g.addNodeLocked(parentID, label, source, papers)
	return n.ID, err
}

// addNodeLocked returns the new node, the existing one with
// ErrDuplicate, or an empty node with any other error.
func (g *Graph) addNodeLocked(parentID, label, source string, papers []string) (*Node, error) {
	parent, ok := g.nodes[parentID]
	if !ok {
		return &Node{}, fmt.Errorf("%w: parent %s", ErrNodeNotFound, parentID)
	}
	norm := textproc.NormalizeTerm(label)
	for _, cid := range parent.Children {
		if c := g.nodes[cid]; c.Norm == norm {
			// same concept already present: merge provenance
			g.addPapersLocked(c, papers)
			g.gen++
			return c, ErrDuplicate
		}
	}
	n := &Node{
		ID:     g.nextID(),
		Label:  label,
		Norm:   norm,
		Parent: parentID,
		Source: source,
	}
	g.addPapersLocked(n, papers)
	g.nodes[n.ID] = n
	parent.Children = append(parent.Children, n.ID)
	g.byNorm[norm] = append(g.byNorm[norm], n.ID)
	g.gen++
	return n, nil
}

func (g *Graph) addPapersLocked(n *Node, papers []string) {
	set := g.paperSets[n.ID]
	for _, p := range papers {
		if set == nil && len(n.Papers) > paperSetMin {
			set = make(map[string]struct{}, len(n.Papers))
			for _, e := range n.Papers {
				set[e] = struct{}{}
			}
			g.paperSets[n.ID] = set
		}
		if _, dup := set[p]; dup || set == nil && slices.Contains(n.Papers, p) {
			continue
		}
		n.Papers = append(n.Papers, p)
		if set != nil {
			set[p] = struct{}{}
		}
	}
}

// AddPapers links publications to a node.
func (g *Graph) AddPapers(id string, papers ...string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeNotFound, id)
	}
	g.addPapersLocked(n, papers)
	g.gen++
	return nil
}

// RemoveLeaf deletes a childless non-root node.
func (g *Graph) RemoveLeaf(id string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeNotFound, id)
	}
	if id == g.rootID {
		return fmt.Errorf("kg: cannot remove root")
	}
	if len(n.Children) > 0 {
		return fmt.Errorf("%w: %s", ErrHasChildren, id)
	}
	parent := g.nodes[n.Parent]
	for i, cid := range parent.Children {
		if cid == id {
			parent.Children = append(parent.Children[:i], parent.Children[i+1:]...)
			break
		}
	}
	ids := g.byNorm[n.Norm]
	for i, nid := range ids {
		if nid == id {
			g.byNorm[n.Norm] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(g.byNorm[n.Norm]) == 0 {
		delete(g.byNorm, n.Norm)
	}
	delete(g.nodes, id)
	delete(g.paperSets, id)
	g.gen++
	return nil
}

// Children returns copies of a node's children in insertion order.
func (g *Graph) Children(id string) ([]Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNodeNotFound, id)
	}
	out := make([]Node, len(n.Children))
	for i, cid := range n.Children {
		out[i] = copyNode(g.nodes[cid])
	}
	return out, nil
}

// PathToRoot returns the node chain from root down to the node (root
// first) — the provenance path the front-end highlights.
func (g *Graph) PathToRoot(id string) ([]Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNodeNotFound, id)
	}
	var rev []Node
	for {
		rev = append(rev, copyNode(n))
		if n.Parent == "" {
			break
		}
		n = g.nodes[n.Parent]
	}
	out := make([]Node, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out, nil
}

// FindByNorm returns ids of nodes whose normalized label equals the
// normalized form of label.
func (g *Graph) FindByNorm(label string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := g.byNorm[textproc.NormalizeTerm(label)]
	return append([]string(nil), ids...)
}

// SearchHit is one KG search result: the matching node and the full
// path from the root, for path highlighting in the UI.
type SearchHit struct {
	Node Node
	Path []Node
}

// searchCheckInterval is how many nodes SearchContext examines between
// context checks.
const searchCheckInterval = 64

// SearchContext finds nodes whose normalized label contains every
// stemmed query token, ordered by depth then label for determinism. The
// label-match loop and the path-resolution loop check ctx every
// searchCheckInterval nodes and return ctx.Err() when the caller is
// gone, so a KG search over a large graph cannot outlive its request.
func (g *Graph) SearchContext(ctx context.Context, query string) ([]SearchHit, error) {
	terms := textproc.ParseQuery(query)
	if len(terms) == 0 {
		return nil, nil
	}
	g.mu.RLock()
	var ids []string
	scanned := 0
	for id, n := range g.nodes {
		scanned++
		if scanned%searchCheckInterval == 0 && ctx.Err() != nil {
			g.mu.RUnlock()
			return nil, ctx.Err()
		}
		match := true
		for _, t := range terms {
			var hit bool
			if t.Exact {
				hit = strings.Contains(strings.ToLower(n.Label), t.Text)
			} else {
				hit = containsToken(n.Norm, t.Text)
			}
			if !hit {
				match = false
				break
			}
		}
		if match {
			ids = append(ids, id)
		}
	}
	g.mu.RUnlock()

	var hits []SearchHit
	for i, id := range ids {
		if i%searchCheckInterval == searchCheckInterval-1 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		path, err := g.PathToRoot(id)
		if err != nil {
			continue
		}
		hits = append(hits, SearchHit{Node: path[len(path)-1], Path: path})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Slice(hits, func(i, j int) bool {
		if len(hits[i].Path) != len(hits[j].Path) {
			return len(hits[i].Path) < len(hits[j].Path)
		}
		return hits[i].Node.Label < hits[j].Node.Label
	})
	return hits, nil
}

func containsToken(norm, token string) bool {
	for _, w := range strings.Fields(norm) {
		if w == token || strings.HasPrefix(w, token) {
			return true
		}
	}
	return false
}

// NodesByPaper returns every node whose provenance cites the given
// publication — the reverse of the path-to-publication navigation: from
// a paper to everything the KG learned from it. Only matches are copied.
func (g *Graph) NodesByPaper(pubID string) []Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Node
	g.walk(g.rootID, 0, func(n *Node, _ int) bool {
		if slices.Contains(n.Papers, pubID) {
			out = append(out, copyNode(n))
		}
		return true
	})
	return out
}

// Walk visits every node depth-first from the root, children in
// insertion order.
func (g *Graph) Walk(fn func(n Node, depth int) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.walk(g.rootID, 0, func(n *Node, depth int) bool { return fn(copyNode(n), depth) })
}

// walk visits the live nodes of id's subtree depth-first, children in
// insertion order, until fn returns false; the caller holds g.mu and fn
// must not modify the nodes.
func (g *Graph) walk(id string, depth int, fn func(n *Node, depth int) bool) bool {
	n := g.nodes[id]
	if !fn(n, depth) {
		return false
	}
	for _, cid := range n.Children {
		if !g.walk(cid, depth+1, fn) {
			return false
		}
	}
	return true
}

// graphJSON is the serialized form.
type graphJSON struct {
	Root  string  `json:"root"`
	Seq   int     `json:"seq"`
	Nodes []*Node `json:"nodes"`
}

// MarshalJSON serializes the graph (nodes sorted by id for stable
// output).
func (g *Graph) MarshalJSON() ([]byte, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	snap := graphJSON{Root: g.rootID, Seq: g.seq}
	for _, n := range g.nodes {
		c := copyNode(n)
		snap.Nodes = append(snap.Nodes, &c)
	}
	sort.Slice(snap.Nodes, func(i, j int) bool { return snap.Nodes[i].ID < snap.Nodes[j].ID })
	return json.Marshal(snap)
}

// FromJSON reconstructs a graph; the embedder must be re-attached by the
// caller (embeddings are model state, not graph state).
func FromJSON(data []byte) (*Graph, error) {
	var snap graphJSON
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("kg: parse: %w", err)
	}
	if snap.Root == "" || len(snap.Nodes) == 0 {
		return nil, fmt.Errorf("kg: empty graph")
	}
	g := &Graph{
		nodes:     map[string]*Node{},
		byNorm:    map[string][]string{},
		rootID:    snap.Root,
		seq:       snap.Seq,
		met:       metrics.Default(),
		paperSets: map[string]map[string]struct{}{},
	}
	for _, n := range snap.Nodes {
		g.nodes[n.ID] = n
		g.byNorm[n.Norm] = append(g.byNorm[n.Norm], n.ID)
	}
	if _, ok := g.nodes[snap.Root]; !ok {
		return nil, fmt.Errorf("kg: root %s missing", snap.Root)
	}
	return g, nil
}

// SeedCOVID builds the expert's initial structural layout (№1 in
// Figure 1): a root plus the high-level characteristics of the virus
// drawn from vetted viral-infection ontologies — 19 nodes, within the
// paper's "10-20 nodes" initialization.
func SeedCOVID(embed EmbedFunc) *Graph {
	g := New("COVID-19", embed)
	root := g.RootID()
	layout := map[string][]string{
		"Clinical presentation": {"Symptoms", "Severity"},
		"Transmission":          {"Airborne", "Contact"},
		"Vaccines":              {"mRNA vaccines", "Vector vaccines"},
		"Treatment":             {"Antivirals", "Supportive care"},
		"Diagnostics":           {"PCR testing", "Antigen testing"},
		"Epidemiology":          {"Risk factors"},
		"Side effects":          {},
		"Variants":              {},
	}
	keys := make([]string, 0, len(layout))
	for k := range layout {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, top := range keys {
		tn, err := g.AddNode(root, top, SourceSeed)
		if err != nil && !errors.Is(err, ErrDuplicate) {
			panic(err) // static layout cannot fail
		}
		for _, sub := range layout[top] {
			if _, err := g.AddNode(tn.ID, sub, SourceSeed); err != nil && !errors.Is(err, ErrDuplicate) {
				panic(err)
			}
		}
	}
	return g
}
