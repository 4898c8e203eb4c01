package kg

import (
	"encoding/json"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Snapshot is an immutable point-in-time view of the graph: node set,
// adjacency, and the byNorm entry-point index, all copied so readers
// never observe a concurrent mutation and never take the graph lock.
// It is the execution surface for internal/kgquery: a path query
// traverses one snapshot end to end, so its results are consistent even
// while fusion keeps writing.
//
// The view is dense: nodes sit in one slice in sorted-id order, so a
// node is an int32 position and comparing two positions is comparing
// the two ids. Beside each Node (the string form Node(id) hands out)
// the snapshot keeps what a traversal reads per visit — parent and
// children as positions, the source confidence, the lower-cased label,
// and the node's papers interned to ordinals — so a query walks,
// scores and counts distinct papers on integers.
//
// Snapshots are generation-cached: Graph.Snapshot() returns the same
// *Snapshot until a mutation bumps the graph's generation, so steady
// read traffic pays the O(n) build once per write, not once per query.
// The same holds for a node's JSON encodings (NodeJSON, PathNodeJSON):
// the first reader of a node builds them, and they live and die with
// the snapshot, so nothing ever invalidates them.
type Snapshot struct {
	nodes  []Node                     // sorted by ID
	dense  []Dense                    // parallel to nodes
	frags  []atomic.Pointer[nodeJSON] // parallel to nodes, filled on first read
	index  map[string]int32           // id → position in nodes
	byNorm map[string][]string
	ids    []string // sorted, for deterministic full scans
	papers int      // distinct publication ids cited across the graph
	rootID string
	gen    uint64
}

// Dense is the integer side of one node: what a traversal reads per
// visit, with no string to hash or compare.
type Dense struct {
	Parent   int32   // position of the parent, -1 at the root
	Children []int32 // positions, in insertion order like Node.Children
	// Papers are the node's publications as ordinals below NumPapers:
	// two nodes cite the same one exactly when they share an ordinal.
	Papers []int32
	Conf   float64 // how far the node's source is trusted
	Lower  string  // the label, lower-cased
}

// PathNode is one node on a path-query result, trimmed for transport:
// the provenance list collapses to its size.
type PathNode struct {
	ID     string `json:"id"`
	Label  string `json:"label"`
	Norm   string `json:"norm"`
	Source string `json:"source"`
	Papers int    `json:"papers"`
}

// nodeJSON is one node's two encodings.
type nodeJSON struct{ node, path []byte }

// Per-source confidence weights (see DESIGN.md): expert-seeded
// structure is ground truth, expert-approved fusions are close behind,
// unsupervised fusions carry the embedding threshold's residual risk.
const (
	ConfSeed    = 1.0
	ConfExpert  = 0.97
	ConfFusion  = 0.85
	ConfUnknown = 0.75
)

func sourceConfidence(source string) float64 {
	switch source {
	case SourceSeed:
		return ConfSeed
	case SourceExpert:
		return ConfExpert
	case SourceFusion:
		return ConfFusion
	default:
		return ConfUnknown
	}
}

// Gen returns the graph generation this snapshot was built from.
func (s *Snapshot) Gen() uint64 { return s.gen }

// RootID returns the root node id.
func (s *Snapshot) RootID() string { return s.rootID }

// Len returns the node count.
func (s *Snapshot) Len() int { return len(s.nodes) }

// Node returns the snapshot's node with the given id. The returned
// pointer is shared and MUST be treated as read-only.
func (s *Snapshot) Node(id string) (*Node, bool) {
	i, ok := s.index[id]
	if !ok {
		return nil, false
	}
	return &s.nodes[i], true
}

// IDs returns all node ids in sorted order; IDs()[i] is the id of the
// node at position i. The returned slice is shared and MUST NOT be
// mutated.
func (s *Snapshot) IDs() []string { return s.ids }

// ByNorm returns the ids of nodes whose normalized label equals norm
// (the caller passes an already-normalized term; see
// textproc.NormalizeTerm). The returned slice is shared and MUST NOT be
// mutated.
func (s *Snapshot) ByNorm(norm string) []string { return s.byNorm[norm] }

// Index returns the position of the node with the given id.
func (s *Snapshot) Index(id string) (int32, bool) {
	i, ok := s.index[id]
	return i, ok
}

// At returns the node at position i, read-only like Node's result.
func (s *Snapshot) At(i int32) *Node { return &s.nodes[i] }

// Dense returns the integer side of the node at position i, read-only
// like At's result.
func (s *Snapshot) Dense(i int32) *Dense { return &s.dense[i] }

// NumPapers returns how many distinct publications the graph cites.
func (s *Snapshot) NumPapers() int { return s.papers }

// NodeJSON returns the node at position i exactly as json.Marshal(At(i))
// encodes it. The bytes are shared by every caller for the snapshot's
// life and MUST NOT be mutated.
func (s *Snapshot) NodeJSON(i int32) []byte { return s.encoded(i).node }

// PathNodeJSON returns the node at position i exactly as json.Marshal
// encodes its PathNode, shared and read-only like NodeJSON's.
func (s *Snapshot) PathNodeJSON(i int32) []byte { return s.encoded(i).path }

// encoded returns the node's encodings, building them on first use.
// Two first readers may both build them; they build the same bytes and
// the first stored wins.
func (s *Snapshot) encoded(i int32) *nodeJSON {
	if e := s.frags[i].Load(); e != nil {
		return e
	}
	n := &s.nodes[i]
	// strings, string lists and an int always encode
	node, _ := json.Marshal(n)
	path, _ := json.Marshal(PathNode{ID: n.ID, Label: n.Label, Norm: n.Norm, Source: n.Source, Papers: len(n.Papers)})
	s.frags[i].CompareAndSwap(nil, &nodeJSON{node, path})
	return s.frags[i].Load()
}

// Snapshot returns the current immutable view, rebuilding it only when
// the graph has changed since the last call.
func (g *Graph) Snapshot() *Snapshot {
	g.mu.RLock()
	if g.snap != nil && g.snap.gen == g.gen {
		s := g.snap
		g.mu.RUnlock()
		return s
	}
	g.mu.RUnlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	// another goroutine may have rebuilt while we waited for the lock
	if g.snap != nil && g.snap.gen == g.gen {
		return g.snap
	}
	g.snap = g.buildSnapshotLocked()
	return g.snap
}

// buildSnapshotLocked copies the graph into a dense snapshot. String
// and position lists are carved from two arenas sized in a first pass;
// what is left to allocate per node is its lower-cased label.
func (g *Graph) buildSnapshotLocked() *Snapshot {
	start := time.Now()
	n := len(g.nodes)
	s := &Snapshot{
		nodes:  make([]Node, n),
		dense:  make([]Dense, n),
		frags:  make([]atomic.Pointer[nodeJSON], n),
		index:  make(map[string]int32, n),
		byNorm: make(map[string][]string, len(g.byNorm)),
		ids:    make([]string, 0, n),
		rootID: g.rootID,
		gen:    g.gen,
	}
	edges, refs := 0, 0
	for id, src := range g.nodes {
		s.ids = append(s.ids, id)
		edges += len(src.Children)
		refs += len(src.Papers)
	}
	sort.Strings(s.ids)
	for i, id := range s.ids {
		s.index[id] = int32(i)
	}
	strs := make([]string, 0, edges+refs+n) // children, papers, and each id once in byNorm
	ints := make([]int32, 0, edges+refs)
	ordinals := make(map[string]int32, refs/4)
	// carve copies src into the string arena. Runs are capped so that an
	// append by a careless reader cannot reach the next node's, and an
	// empty list stays nil as copyNode leaves it.
	carve := func(src []string) []string {
		if len(src) == 0 {
			return nil
		}
		lo := len(strs)
		strs = append(strs, src...)
		return strs[lo:len(strs):len(strs)]
	}
	for i, id := range s.ids {
		src := g.nodes[id]
		out, d := &s.nodes[i], &s.dense[i]
		*out = *src
		d.Parent = -1
		if src.Parent != "" {
			d.Parent = s.index[src.Parent]
		}
		d.Conf = sourceConfidence(src.Source)
		d.Lower = strings.ToLower(src.Label)

		out.Children = carve(src.Children)
		lo := len(ints)
		for _, cid := range src.Children {
			ints = append(ints, s.index[cid])
		}
		d.Children = ints[lo:len(ints):len(ints)]

		out.Papers = carve(src.Papers)
		lo = len(ints)
		for _, pub := range src.Papers {
			ord, ok := ordinals[pub]
			if !ok {
				ord = int32(len(ordinals))
				ordinals[pub] = ord
			}
			ints = append(ints, ord)
		}
		d.Papers = ints[lo:len(ints):len(ints)]
	}
	s.papers = len(ordinals)
	for norm, ids := range g.byNorm {
		s.byNorm[norm] = carve(ids)
	}
	g.met.Counter("kg.snapshot_builds").Inc()
	g.met.Histogram("kg.snapshot_build").Observe(time.Since(start))
	return s
}
