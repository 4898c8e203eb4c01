package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"covidkg/internal/cord19"
	"covidkg/internal/jsondoc"
	"covidkg/internal/textproc"
)

// Workload names; later issues refer to them by these.
const (
	wlSearchCold  = "search_cold"
	wlSearchWarm  = "search_warm"
	wlIngestMixed = "ingest_mixed"
	wlKGBrowse    = "kg_browse"
)

var workloadNames = []string{wlSearchCold, wlSearchWarm, wlIngestMixed, wlKGBrowse}

// Fixed workload shape. These are constants, not flags: two runs are
// comparable only if they are the same.
const (
	hotSetSize  = 200 // search_warm's working set; the query cache holds 1024
	zipfS       = 1.1
	ingestBatch = 32  // documents per POST /publications
	pubSample   = 200 // publication ids kg_browse reads
)

// opKind is one request shape; latencies and checks are keyed by it.
type opKind int

const (
	opSearchMulti opKind = iota
	opSearchPhrase
	opSearchTables
	opSearchFields
	opKGQuery
	opKGNode
	opPubGet
	opIngest
	opMarker
)

func (k opKind) isSearch() bool { return k <= opSearchFields }

// op is one generated request plus what its response must satisfy.
type op struct {
	kind   opKind
	method string
	path   string // with query string
	body   []byte
	ctype  string

	query searchQuery   // search ops
	kg    *kgExpect     // opKGQuery
	id    string        // opPubGet: the _id; opKGNode: the node id; opMarker: the only hit
	docs  []jsondoc.Doc // opIngest: the batch, for the traced replay
}

// searchQuery is one 3-term search in one of the four shapes.
type searchQuery struct {
	shape opKind
	terms [3]string
}

// text is the q parameter (engine=fields sends the terms per field).
func (q searchQuery) text() string {
	if q.shape == opSearchPhrase {
		return fmt.Sprintf("%q %s", q.terms[0]+" "+q.terms[1], q.terms[2])
	}
	return strings.Join(q.terms[:], " ")
}

func (q searchQuery) op() op {
	v := url.Values{}
	switch q.shape {
	case opSearchTables:
		v.Set("engine", "tables")
		v.Set("q", q.text())
	case opSearchFields:
		v.Set("engine", "fields")
		v.Set("title", q.terms[0])
		v.Set("abstract", q.terms[1]+" "+q.terms[2])
	default:
		v.Set("engine", "all")
		v.Set("q", q.text())
	}
	return op{kind: q.shape, method: "GET", path: "/api/v1/search?" + v.Encode(), query: q}
}

// vocabulary is the corpus's topical terms, one word per stem: two words
// with one stem would make two "distinct" queries share a cache entry.
func vocabulary() []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range cord19.Topics {
		for _, w := range t.Terms {
			if s := textproc.Stem(strings.ToLower(w)); !seen[s] {
				seen[s] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// shapeCycle fixes the shape of the n-th query of a stream: exactly
// 60 % multi-term engine=all, 15 % quoted phrase, 15 % engine=tables and
// 10 % engine=fields in every 20 queries. A phrase query costs several
// multi-term ones, so a mix drawn at random would move throughput from
// seed to seed by more than most changes do; the seed picks the terms.
// The hot set's popularity ranks follow the same cycle, so the Zipf head
// has the same shapes under every seed.
var shapeCycle = [20]opKind{
	opSearchMulti, opSearchMulti, opSearchTables, opSearchMulti, opSearchPhrase,
	opSearchMulti, opSearchMulti, opSearchFields, opSearchMulti, opSearchTables,
	opSearchMulti, opSearchPhrase, opSearchMulti, opSearchMulti, opSearchTables,
	opSearchMulti, opSearchFields, opSearchMulti, opSearchPhrase, opSearchMulti,
}

// queryGen draws 3-term combinations of the vocabulary without
// replacement, so no query repeats within a run and the query cache can
// never answer (search_cold). Terms are dealt from a shuffled deck of the
// whole vocabulary, reshuffled when it runs out, so every word is used
// equally often.
type queryGen struct {
	rng   *rand.Rand
	vocab []string
	deck  []int
	seen  map[[3]int]bool
	n     int
}

func newQueryGen(seed int64) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed)), vocab: vocabulary(), seen: map[[3]int]bool{}}
}

func (g *queryGen) next() searchQuery {
	for {
		if len(g.deck) < 3 {
			g.deck = g.rng.Perm(len(g.vocab))
		}
		c := [3]int{g.deck[0], g.deck[1], g.deck[2]}
		g.deck = g.deck[3:]
		// a combination is a set: the same three words in another order
		// is another string but the same work
		key := c
		sort.Ints(key[:])
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		q := searchQuery{shape: shapeCycle[g.n%len(shapeCycle)],
			terms: [3]string{g.vocab[c[0]], g.vocab[c[1]], g.vocab[c[2]]}}
		g.n++
		return q
	}
}

// hotSet is search_warm's fixed working set: the first hotSetSize draws
// of the seed's query stream.
func hotSet(seed int64) []searchQuery {
	g := newQueryGen(seed)
	set := make([]searchQuery, hotSetSize)
	for i := range set {
		set[i] = g.next()
	}
	return set
}

// hotGen draws from the hot set with Zipf-distributed popularity
// (search_warm, and the reader of ingest_mixed). Each client has its own.
type hotGen struct {
	set  []searchQuery
	zipf *rand.Zipf
}

func newHotGen(set []searchQuery, seed int64) *hotGen {
	return &hotGen{set: set, zipf: rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(len(set)-1))}
}

func (g *hotGen) next() searchQuery { return g.set[g.zipf.Uint64()] }

// letters renders n in base 26 with letters only: a marker must survive
// the tokenizer as one token.
func letters(n int64) string {
	if n < 0 {
		n = -n
	}
	var b []byte
	for {
		b = append(b, byte('a'+n%26))
		n /= 26
		if n == 0 {
			break
		}
	}
	return string(b)
}

// markerToken is unique per (seed, batch). It ends in q, which no stemmer
// rule strips, so two markers never share a stem.
func markerToken(seed int64, batch int) string {
	return "zq" + letters(seed) + "k" + letters(int64(batch)) + "q"
}

// ingestGen produces NDJSON batches of fresh generated publications, ids
// prefixed bench-. The first document of each batch carries the batch's
// marker token in its abstract.
type ingestGen struct {
	gen   *cord19.Generator
	seed  int64
	docs  int
	batch int
}

func newIngestGen(seed int64) *ingestGen {
	return &ingestGen{gen: cord19.NewGenerator(seed), seed: seed}
}

// next returns the batch POST and the marker search that must, once the
// POST is acked, return exactly the marked document.
func (g *ingestGen) next() (post, marker op) {
	g.batch++
	token := markerToken(g.seed, g.batch)
	var body bytes.Buffer
	docs := make([]jsondoc.Doc, ingestBatch)
	for i := range docs {
		g.docs++
		p := g.gen.Publication()
		p.ID = fmt.Sprintf("bench-%d-%06d", g.seed, g.docs)
		if i == 0 {
			p.Abstract += " " + token
		}
		docs[i] = p.Doc()
		body.Write(docs[i].JSON())
		body.WriteByte('\n')
	}
	post = op{kind: opIngest, method: "POST", path: "/api/v1/publications",
		body: body.Bytes(), ctype: "application/x-ndjson", docs: docs}
	marker = op{kind: opMarker, method: "GET",
		path: "/api/v1/search?" + url.Values{"q": {token}, "engine": {"all"}}.Encode(),
		id:   docs[0].GetString("_id")}
	return post, marker
}

// kgNode is what set-up learns about one node from GET /api/v1/kg.
type kgNode struct {
	ID       string   `json:"id"`
	Label    string   `json:"label"`
	Norm     string   `json:"norm"`
	Parent   string   `json:"parent"`
	Children []string `json:"children"`
	Source   string   `json:"source"`
}

// kgTemplate is one /kg/query pattern. Forward templates bind $a to the
// label of a node that has children, so the traversal has somewhere to
// go; norm= normalizes its value, so the paths must start (or end) at
// that node's norm.
type kgTemplate struct {
	name     string
	text     string
	min, max int
}

var kgTemplates = []kgTemplate{
	{"fwd1", `(norm=$a)->()`, 1, 1},
	{"fwd2", `(norm=$a)-{1,2}->()`, 1, 2},
	{"fwd3", `(norm=$a)-{1,3}->()`, 1, 3},
	{"reversed", `()-{1,2}->(norm=$a)`, 1, 2},
	{"label_scan", `(label~$a)->()`, 1, 1},
	{"source_source", `(source=$a)-{1,2}->(source=$b)`, 1, 2},
}

// kgExpect is one bound /kg/query and what every path of its response
// must satisfy.
type kgExpect struct {
	template           string
	text               string
	params             map[string]string
	min, max           int
	startNorm, endNorm string // exact norm of the first / last node
	startLabelHas      string // lower-case substring of the first node's label
	startSrc, endSrc   string
}

// kgGen produces the kg_browse session mix in a fixed cycle — 50 %
// /kg/query (the six templates in turn), 25 % node with children, 25 %
// publication by id — for the reason shapeCycle is fixed; the seed picks
// the nodes and publications.
type kgGen struct {
	rng     *rand.Rand
	nodes   []kgNode
	parents []int // indices of nodes with children
	inner   []int // indices of nodes with a parent
	pubIDs  []string
	n       int
}

func newKGGen(seed int64, nodes []kgNode, pubIDs []string) (*kgGen, error) {
	g := &kgGen{rng: rand.New(rand.NewSource(seed)), nodes: nodes, pubIDs: pubIDs}
	for i, n := range nodes {
		if len(n.Children) > 0 && strings.TrimSpace(n.Label) != "" {
			g.parents = append(g.parents, i)
		}
		if n.Parent != "" {
			g.inner = append(g.inner, i)
		}
	}
	if len(g.parents) == 0 || len(g.inner) == 0 || len(pubIDs) == 0 {
		return nil, fmt.Errorf("kg_browse: graph of %d nodes and %d publication ids gives nothing to browse", len(nodes), len(pubIDs))
	}
	return g, nil
}

func (g *kgGen) next() op {
	step := g.n
	g.n++
	switch step % 4 {
	case 1:
		n := g.nodes[g.rng.Intn(len(g.nodes))]
		return op{kind: opKGNode, method: "GET",
			path: "/api/v1/kg/nodes/" + url.PathEscape(n.ID) + "?expand=children", id: n.ID}
	case 3:
		id := g.pubIDs[g.rng.Intn(len(g.pubIDs))]
		return op{kind: opPubGet, method: "GET", path: "/api/v1/publications/" + url.PathEscape(id), id: id}
	default:
		return g.query(kgTemplates[step/2%len(kgTemplates)])
	}
}

func (g *kgGen) query(t kgTemplate) op {
	params := map[string]string{}
	exp := &kgExpect{template: t.name, text: t.text, params: params, min: t.min, max: t.max}
	switch t.name {
	case "reversed":
		n := g.nodes[g.inner[g.rng.Intn(len(g.inner))]]
		params["a"], exp.endNorm = n.Label, n.Norm
	case "label_scan":
		n := g.nodes[g.parents[g.rng.Intn(len(g.parents))]]
		frag := strings.ToLower(strings.Fields(n.Label)[0])
		params["a"], exp.startLabelHas = frag, frag
	case "source_source":
		params["a"], params["b"] = "seed", "fusion"
		exp.startSrc, exp.endSrc = "seed", "fusion"
	default:
		n := g.nodes[g.parents[g.rng.Intn(len(g.parents))]]
		params["a"], exp.startNorm = n.Label, n.Norm
	}
	body, err := json.Marshal(map[string]any{"query": t.text, "params": params, "page": 1, "page_size": 20})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return op{kind: opKGQuery, method: "POST", path: "/api/v1/kg/query",
		body: body, ctype: "application/json", kg: exp}
}

// serverPubIDs re-runs the corpus generator with the server's own seed
// and size to learn the ids it stored, and samples pubSample of them.
func serverPubIDs(seed int64) []string {
	corpus := cord19.NewGenerator(serverSeed).Corpus(serverPubs)
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, pubSample)
	for i, j := range rng.Perm(len(corpus))[:pubSample] {
		out[i] = corpus[j].ID
	}
	return out
}
