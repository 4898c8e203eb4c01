// Package core wires the COVIDKG subsystems into the end-to-end system
// of Figure 1: publications are ingested into the sharded store (№3),
// models are trained on WDC-style and CORD-19-style tables (№4), table
// rows are classified into metadata and data (§3), subtrees extracted
// from classified metadata are fused into the expert-seeded knowledge
// graph (№5, №6, №14), topical clusters are computed over document
// embeddings, and meta-profiles summarize side-effect tables (№7).
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"covidkg/internal/bias"
	"covidkg/internal/breaker"
	"covidkg/internal/classifier"
	"covidkg/internal/cluster"
	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/durable"
	"covidkg/internal/embeddings"
	"covidkg/internal/failpoint"
	"covidkg/internal/faultfs"
	"covidkg/internal/features"
	"covidkg/internal/jsondoc"
	"covidkg/internal/kg"
	"covidkg/internal/metaprofile"
	"covidkg/internal/metrics"
	"covidkg/internal/mlcore"
	"covidkg/internal/search"
	"covidkg/internal/shardnet"
	"covidkg/internal/svm"
	"covidkg/internal/tableparse"
)

// PubsCollection is the collection name holding publications.
const PubsCollection = "publications"

// Config assembles a System.
type Config struct {
	Shards      int // document-store shards
	VocabSize   int // §3.2 feature-space size (paper: 100,000)
	TrainTables int // labeled tables generated for classifier training
	Seed        int64

	// Replicas is ignored: every shard holds one copy.
	//
	// Deprecated: kept only for benchmark/trace.go:122, which still sets
	// it; delete it with that line.
	Replicas int

	// Failpoints optionally injects runtime faults (latency, errors,
	// outages) into the store's shards — the chaos-testing hook. Nil
	// disables injection entirely.
	Failpoints *failpoint.Registry

	// Breaker tunes the per-shard circuit breakers (failure threshold,
	// half-open cooldown). The zero value uses the breaker defaults.
	Breaker breaker.Config

	// ShardAddrs switches the publication store into networked mode: one
	// address per shard server process (covidkg-shard), scatter-gathered
	// by a shardnet.Coordinator instead of in-process shards. Empty keeps
	// the in-process tier. The knowledge-graph collection and model
	// artifacts stay in the local store either way.
	ShardAddrs []string

	// ShardNet tunes the coordinator (timeouts, retries, hedging) in
	// networked mode; zero values take the shardnet defaults. Breaker
	// and Metrics above are folded in automatically.
	ShardNet shardnet.Config

	// Metrics directs robustness counters (breaker_open,
	// partial_responses) to a specific registry; nil uses the process
	// default.
	Metrics *metrics.Registry

	// UseEnsemble selects the BiGRU ensemble for row classification in
	// BuildKG; false uses the (much faster) SVM.
	UseEnsemble bool

	// FS overrides the filesystem used for persistence — fault-injection
	// tests crash checkpoints through it. Nil means the real filesystem.
	FS faultfs.FS

	W2V      embeddings.Config
	Ensemble classifier.EnsembleConfig
	SVM      svm.Config
}

// DefaultConfig returns a configuration sized for interactive use on the
// synthetic corpus.
func DefaultConfig() Config {
	w2v := embeddings.DefaultConfig()
	w2v.MinCount = 1
	return Config{
		Shards:      4,
		VocabSize:   5000,
		TrainTables: 150,
		Seed:        1,
		W2V:         w2v,
		Ensemble:    classifier.DefaultEnsembleConfig(),
		SVM:         svm.DefaultConfig(),
	}
}

// System is a running COVIDKG instance.
type System struct {
	cfg Config

	Store  *docstore.Store
	Pubs   docstore.Docs
	Search *search.Engine

	// Coord is non-nil in networked mode: publications live in remote
	// shard server processes and Pubs is the scatter-gather coordinator.
	Coord *shardnet.Coordinator

	Vocab    *features.Vocabulary
	TermW2V  *embeddings.Word2Vec // term-level tabular embeddings
	CellW2V  *embeddings.Word2Vec // cell-level tabular embeddings
	TextW2V  *embeddings.Word2Vec // free-text embeddings (clustering, KG matching)
	SVM      *classifier.SVMModel
	Ensemble *classifier.Ensemble

	Graph *kg.Graph
	Fuser *kg.Fuser

	// pending holds the publications stored since the last enrichment:
	// ingest appends each stored document's id and tables, EnrichNew takes
	// the lot. Enrichment therefore costs what the batch in hand costs,
	// never a listing or scan of the store, and a document is enriched by
	// exactly one EnrichNew — whichever call took it off the queue.
	// Concurrent ingest handlers append and drain at once, so procMu
	// guards it.
	procMu  sync.Mutex
	pending []pendingPub
}

// pendingPub is one stored publication awaiting KG enrichment: its id
// and its raw "tables" array, shared with the stored document and only
// read.
type pendingPub struct {
	id     string
	tables []any
}

// NewSystem creates an empty system with the expert-seeded KG.
func NewSystem(cfg Config) *System {
	storeOpts := []docstore.Option{
		docstore.WithShards(cfg.Shards),
		docstore.WithBreaker(cfg.Breaker),
	}
	if cfg.FS != nil {
		storeOpts = append(storeOpts, docstore.WithFS(cfg.FS))
	}
	if cfg.Failpoints != nil {
		storeOpts = append(storeOpts, docstore.WithFailpoints(cfg.Failpoints))
	}
	if cfg.Metrics != nil {
		storeOpts = append(storeOpts, docstore.WithMetrics(cfg.Metrics))
	}
	store := docstore.Open(storeOpts...)
	s := &System{cfg: cfg, Store: store}
	if len(cfg.ShardAddrs) > 0 {
		ncfg := cfg.ShardNet
		ncfg.Collection = PubsCollection
		if ncfg.Breaker.Threshold == 0 && ncfg.Breaker.Cooldown == 0 {
			ncfg.Breaker = cfg.Breaker
		}
		if ncfg.Metrics == nil {
			ncfg.Metrics = cfg.Metrics
		}
		co, err := shardnet.Dial(ncfg, cfg.ShardAddrs)
		if err != nil {
			// Dial only validates configuration (an empty address list);
			// with ShardAddrs non-empty it cannot fail.
			panic(fmt.Sprintf("core: shardnet dial: %v", err))
		}
		s.Coord = co
		s.Pubs = co
	} else {
		s.Pubs = store.Collection(PubsCollection)
	}
	s.Search = search.NewEngine(s.Pubs)
	s.Search.SetMetrics(cfg.Metrics)
	s.Graph = kg.SeedCOVID(nil)
	s.Fuser = kg.NewFuser(s.Graph)
	return s
}

// Health reports per-shard readiness and breaker state — the payload
// behind GET /readyz in the in-process tier. In networked mode use
// ShardConnHealth instead.
func (s *System) Health() []docstore.ShardHealth { return s.Store.Health() }

// Remote reports whether publications are served by remote shard
// processes through a coordinator.
func (s *System) Remote() bool { return s.Coord != nil }

// ShardConnHealth probes the remote shard tier: per-connection state
// (connected / breaker-open / unreachable) and the current
// shard-map version — the payload behind GET /readyz in networked
// mode. Returns nil, 0 when the system is in-process.
func (s *System) ShardConnHealth(ctx context.Context) ([]shardnet.ConnHealth, uint64) {
	if s.Coord == nil {
		return nil, 0
	}
	return s.Coord.Health(ctx)
}

// IngestPublications stores generated publications through the same
// path as IngestDocs, IngestBatchSize at a time. It stops after the
// first batch in which a publication fails (the rest of that batch is
// still attempted) and reports the first failure.
func (s *System) IngestPublications(pubs []*cord19.Publication) error {
	for len(pubs) > 0 {
		batch := pubs[:min(IngestBatchSize, len(pubs))]
		pubs = pubs[len(batch):]
		docs := make([]jsondoc.Doc, len(batch))
		for i, p := range batch {
			docs[i] = p.Doc()
		}
		for i, a := range s.ingest(docs) {
			if a.Err != nil {
				return fmt.Errorf("core: ingest %s: %w", batch[i].ID, a.Err)
			}
		}
	}
	return nil
}

// IngestBatchSize is how many documents a bulk load hands IngestDocs at
// once — IngestPublications here, the upload handler in the API tier —
// which bounds what one batch holds in flight however large the load.
const IngestBatchSize = 256

// DocResult is the outcome of one document in a bulk ingest: its
// position in the batch and either the assigned id or the failure.
type DocResult struct {
	Index int    `json:"index"`
	ID    string `json:"id,omitempty"`
	Error string `json:"error,omitempty"`
}

// IngestReport is the per-document outcome of a bulk ingest. Unlike the
// old all-or-nothing error, it makes partial success explicit: a batch
// used to stop at the first bad document, leaving every earlier one
// silently ingested while the caller saw only a failure.
type IngestReport struct {
	Results  []DocResult `json:"results"`
	Inserted int         `json:"inserted"`
	Failed   int         `json:"failed"`
}

// Err summarizes the report as a single error (nil when every document
// landed), for callers that only need the old pass/fail signal.
func (r IngestReport) Err() error {
	if r.Failed == 0 {
		return nil
	}
	for _, res := range r.Results {
		if res.Error != "" {
			return fmt.Errorf("core: ingest: %d of %d documents failed, first at index %d: %s",
				r.Failed, len(r.Results), res.Index, res.Error)
		}
	}
	return fmt.Errorf("core: ingest: %d documents failed", r.Failed)
}

// IngestDocs stores raw publication documents. Every document is
// attempted; failures do not abort the batch, and Results is aligned
// with docs.
func (s *System) IngestDocs(docs []jsondoc.Doc) IngestReport {
	rep := IngestReport{Results: make([]DocResult, len(docs))}
	for i, a := range s.ingest(docs) {
		rep.Results[i] = DocResult{Index: i, ID: a.ID}
		if a.Err != nil {
			rep.Results[i].Error = a.Err.Error()
			rep.Failed++
		} else {
			rep.Inserted++
		}
	}
	return rep
}

// ingest is the one ingest path: store and index a batch, then queue
// each stored document's tables for the next EnrichNew.
func (s *System) ingest(docs []jsondoc.Doc) []search.Added {
	added := s.Search.AddDocuments(docs)
	stored := make([]pendingPub, 0, len(added))
	for _, a := range added {
		if a.Err == nil {
			stored = append(stored, pendingPub{a.ID, a.Doc.GetArray("tables")})
		}
	}
	s.procMu.Lock()
	s.pending = append(s.pending, stored...)
	s.procMu.Unlock()
	return added
}

// tableFunc receives one parsed table and the id of the publication it
// came from.
type tableFunc func(pubID string, t *tableparse.Table)

// eachTable calls fn with every table of one publication's raw "tables"
// array.
func eachTable(pubID string, tables []any, fn tableFunc) {
	for _, tv := range tables {
		if tm, _ := tv.(map[string]any); tm != nil {
			fn(pubID, tableparse.TableFromDoc(jsondoc.Doc(tm)))
		}
	}
}

// storedTables iterates every stored table with its owning publication.
func (s *System) storedTables(fn tableFunc) {
	s.Pubs.Scan(func(d jsondoc.Doc) bool {
		eachTable(d.GetString("_id"), d.GetArray("tables"), fn)
		return true
	})
}

// TrainStats summarizes TrainModels.
type TrainStats struct {
	VocabSize      int
	TermVocab      int
	CellVocab      int
	TextVocab      int
	TrainRows      int
	SVMMetrics     classifier.Metrics
	EnsembleEpochs int
}

// TrainModels trains every model the system needs: Word2Vec embeddings
// (pre-trained on WDC-substitute tables, fine-tuned on the stored
// corpus, per §3.6), the §3.2 vocabulary, the SVM, and — when
// UseEnsemble is set — the BiGRU ensemble. One scan of the store
// gathers the corpus tables and texts; the term, cell and text
// embeddings and the vocabulary + SVM then train at once, each on its
// own seeded generator, so the models are the same as trained in turn.
func (s *System) TrainModels() (TrainStats, error) {
	defer s.setMillis("core.train_ms", time.Now())
	var stats TrainStats
	gen := cord19.NewGenerator(s.cfg.Seed + 1000)

	// WDC-substitute labeled tables for pre-training and classifier
	// training
	wdc := gen.LabeledTables(s.cfg.TrainTables, 0.5)
	var grids [][][]string
	for _, lt := range wdc {
		grids = append(grids, lt.Rows)
	}

	// the stored corpus: its tables are the fine-tuning target, its
	// titles+abstracts train the free-text embeddings
	var corpusGrids [][][]string
	var texts []string
	s.Pubs.Scan(func(d jsondoc.Doc) bool {
		eachTable("", d.GetArray("tables"), func(_ string, t *tableparse.Table) {
			corpusGrids = append(corpusGrids, t.Rows)
		})
		texts = append(texts, d.GetString("title")+" "+d.GetString("abstract"))
		return true
	})

	var (
		wg                        sync.WaitGroup
		termW2V, cellW2V, textW2V *embeddings.Word2Vec
		vocab                     *features.Vocabulary
		svmModel                  *classifier.SVMModel
		svmSamples                []classifier.SVMSample
		svmErr                    error
	)
	wg.Add(4)
	// free-text embeddings for clustering and KG label matching
	go func() {
		defer wg.Done()
		var textSents [][]string
		for _, text := range texts {
			if sent := contentSentence(text); len(sent) > 1 {
				textSents = append(textSents, sent)
			}
		}
		if len(textSents) > 0 {
			textW2V = embeddings.Train(textSents, s.cfg.W2V)
		}
	}()
	// §3.2 vocabulary + §3.5 SVM
	go func() {
		defer wg.Done()
		var cellTexts []string
		for _, lt := range wdc {
			svmSamples = append(svmSamples, classifier.SVMSamplesFromTable(lt.Rows, lt.Meta)...)
			for _, row := range lt.Rows {
				cellTexts = append(cellTexts, row...)
			}
		}
		vocab = features.BuildVocabulary(cellTexts, s.cfg.VocabSize)
		svmModel = classifier.NewSVMModel(vocab, s.cfg.SVM)
		svmErr = svmModel.Train(svmSamples)
	}()
	// tabular embeddings: pre-train on the WDC substitute, fine-tune on
	// the stored corpus's tables (the target corpus)
	termSents, cellSents := embeddings.TableSentences(grids)
	ftTerm, ftCell := embeddings.TableSentences(corpusGrids)
	tabular := func(pre, ft [][]string, out **embeddings.Word2Vec) {
		defer wg.Done()
		w := embeddings.Train(pre, s.cfg.W2V)
		if len(corpusGrids) > 0 {
			w.FineTune(ft, s.cfg.W2V)
		}
		*out = w
	}
	go tabular(termSents, ftTerm, &termW2V)
	go tabular(cellSents, ftCell, &cellW2V)
	wg.Wait()

	s.TermW2V, s.CellW2V = termW2V, cellW2V
	if textW2V != nil {
		s.TextW2V = textW2V
		s.Graph.SetEmbedder(textW2V.EmbedText)
	}
	s.Vocab, s.SVM = vocab, svmModel
	stats.TrainRows = len(svmSamples)
	stats.VocabSize = vocab.Size()
	if svmErr != nil {
		return stats, fmt.Errorf("core: svm: %w", svmErr)
	}
	stats.SVMMetrics = s.SVM.Evaluate(svmSamples)

	if s.cfg.UseEnsemble {
		ens, err := classifier.NewEnsemble(s.TermW2V, s.CellW2V, s.cfg.Ensemble)
		if err != nil {
			return stats, fmt.Errorf("core: ensemble: %w", err)
		}
		var tupleSamples []classifier.TupleSample
		for _, lt := range wdc {
			tupleSamples = append(tupleSamples, classifier.SamplesFromTable(lt.Rows, lt.Meta)...)
		}
		ts := ens.Train(tupleSamples)
		stats.EnsembleEpochs = len(ts.EpochLoss)
		s.Ensemble = ens
	}
	stats.TermVocab = len(s.TermW2V.Words)
	stats.CellVocab = len(s.CellW2V.Words)
	if s.TextW2V != nil {
		stats.TextVocab = len(s.TextW2V.Words)
	}
	return stats, nil
}

// setMillis records the milliseconds since start in the named gauge of
// the configured registry, if any.
func (s *System) setMillis(name string, start time.Time) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Gauge(name).Set(time.Since(start).Milliseconds())
	}
}

func contentSentence(text string) []string {
	return embeddings.TermSentence([]string{text})
}

// classifyRows predicts metadata labels for a table's rows with the
// configured model; falls back to the markup hints when no model is
// trained yet.
func (s *System) classifyRows(t *tableparse.Table) []bool {
	meta := make([]bool, t.NumRows())
	switch {
	case s.cfg.UseEnsemble && s.Ensemble != nil:
		for i, sample := range classifier.SamplesFromTable(t.Rows, nil) {
			meta[i] = s.Ensemble.Predict(sample) == 1
		}
	case s.SVM != nil:
		for i, f := range features.ExtractRows(t.Rows, nil) {
			meta[i] = s.SVM.Predict(f) == 1
		}
	default:
		for _, h := range t.MarkupHeaderRows {
			if h < len(meta) {
				meta[h] = true
			}
		}
	}
	return meta
}

// BuildStats summarizes a BuildKG run.
type BuildStats struct {
	Tables         int
	RowsClassified int
	MetaRows       int
	Subtrees       int
	Fused          int
	Queued         int
	NodesAdded     int
}

// Add accumulates another run's counts into st — a multi-batch ingest
// reports the sum of its per-batch enrichments.
func (st *BuildStats) Add(o BuildStats) {
	st.Tables += o.Tables
	st.RowsClassified += o.RowsClassified
	st.MetaRows += o.MetaRows
	st.Subtrees += o.Subtrees
	st.Fused += o.Fused
	st.Queued += o.Queued
	st.NodesAdded += o.NodesAdded
}

// BuildKG runs the enrichment pipeline of §4.2 over every stored table:
// classify rows, extract one subtree per column (header label → distinct
// text values), and fuse each subtree into the graph with the paper's
// provenance attached. It is the one full scan of the store, run at
// boot; everything it covered leaves the pending queue, so a later
// EnrichNew only enriches from arrivals since.
func (s *System) BuildKG() BuildStats {
	defer s.setMillis("core.build_kg_ms", time.Now())
	scanned := map[string]bool{}
	st := s.enrich(func(fn tableFunc) {
		s.Pubs.Scan(func(d jsondoc.Doc) bool {
			id := d.GetString("_id")
			scanned[id] = true
			eachTable(id, d.GetArray("tables"), fn)
			return true
		})
	})
	s.procMu.Lock()
	var kept []pendingPub
	for _, p := range s.pending {
		if !scanned[p.id] {
			kept = append(kept, p) // stored after the scan passed its shard
		}
	}
	s.pending = kept
	s.procMu.Unlock()
	return st
}

// Refresh is the paper's "scalable mechanism to keep the KG up to date":
// it ingests new publications and runs enrichment over only the tables
// the graph has not seen, leaving everything already fused untouched.
func (s *System) Refresh(pubs []*cord19.Publication) (BuildStats, error) {
	if err := s.IngestPublications(pubs); err != nil {
		return BuildStats{}, err
	}
	return s.EnrichNew(), nil
}

// RefreshDocs ingests raw publication documents (№12 in Figure 1: new
// information arriving from the Web) and incrementally enriches the KG
// from them. Documents that land are enriched even when others in the
// batch fail; the summary error reports how many failed. Callers that
// need the per-document breakdown (the bulk ingest API) use IngestDocs
// plus EnrichNew directly.
func (s *System) RefreshDocs(docs []jsondoc.Doc) (BuildStats, error) {
	rep := s.IngestDocs(docs)
	if rep.Inserted == 0 && rep.Failed > 0 {
		return BuildStats{}, rep.Err()
	}
	return s.EnrichNew(), rep.Err()
}

// EnrichNew incrementally enriches the KG from the publications stored
// since the last enrichment: it takes the pending queue and classifies,
// extracts and fuses those documents' tables, touching neither the
// store nor anything already fused. The bulk ingest handler calls it
// after every flushed batch. Safe to call from concurrent ingest
// handlers: each queued publication is taken by exactly one call (not
// necessarily the one that stored it).
func (s *System) EnrichNew() BuildStats {
	s.procMu.Lock()
	taken := s.pending
	s.pending = nil
	s.procMu.Unlock()
	return s.enrich(func(fn tableFunc) {
		for _, p := range taken {
			eachTable(p.id, p.tables, fn)
		}
	})
}

// enrich runs classification + extraction + fusion over every table the
// given iterator yields.
func (s *System) enrich(tables func(tableFunc)) BuildStats {
	var st BuildStats
	before := s.Graph.Size()
	tables(func(pubID string, t *tableparse.Table) {
		st.Tables++
		meta := s.classifyRows(t)
		st.RowsClassified += len(meta)
		for _, m := range meta {
			if m {
				st.MetaRows++
			}
		}
		for _, sub := range ExtractSubtrees(t, meta, pubID) {
			st.Subtrees++
			res := s.Fuser.Fuse(sub)
			switch res.Action {
			case kg.ActionFused:
				st.Fused++
			case kg.ActionQueued:
				st.Queued++
			}
		}
	})
	st.NodesAdded = s.Graph.Size() - before
	return st
}

// ExtractSubtrees converts one classified table into fusion subtrees:
// for every column whose header cell (first metadata row) is non-empty,
// the subtree root is the header label and the leaves are the column's
// distinct non-numeric values. Columns without text values (pure
// measurements) yield no subtree.
func ExtractSubtrees(t *tableparse.Table, meta []bool, pubID string) []*kg.Subtree {
	headerIdx := -1
	for i, m := range meta {
		if m {
			headerIdx = i
			break
		}
	}
	if headerIdx < 0 || t.NumRows() <= headerIdx+1 {
		return nil
	}
	header := t.Rows[headerIdx]
	var out []*kg.Subtree
	for c, label := range header {
		label = strings.TrimSpace(label)
		if label == "" {
			continue
		}
		seen := map[string]bool{}
		var leaves []string
		for r := headerIdx + 1; r < t.NumRows(); r++ {
			if r < len(meta) && meta[r] {
				continue // skip mid-table section headers
			}
			row := t.Rows[r]
			if c >= len(row) {
				continue
			}
			v := strings.TrimSpace(row[c])
			if v == "" || !isTextValue(v) || seen[v] {
				continue
			}
			seen[v] = true
			leaves = append(leaves, v)
		}
		if len(leaves) == 0 {
			continue
		}
		sort.Strings(leaves)
		sub := kg.NewSubtree(label, leaves...)
		sub.Papers = []string{pubID}
		out = append(out, sub)
	}
	return out
}

// isTextValue reports whether a cell is a categorical text value rather
// than a measurement (numbers, ranges, percents never become KG leaves).
func isTextValue(v string) bool {
	letters, digits := 0, 0
	for _, r := range v {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
			letters++
		case r >= '0' && r <= '9':
			digits++
		}
	}
	return letters > digits && letters >= 3
}

// TopicClusters clusters stored publications into k topics over their
// text embeddings. Returns the clustering, aligned publication ids, and
// aligned ground-truth topics (empty string when absent).
func (s *System) TopicClusters(k int) (*cluster.Result, []string, []string, error) {
	if s.TextW2V == nil {
		return nil, nil, nil, fmt.Errorf("core: text embeddings not trained")
	}
	var points [][]float64
	var ids, truths []string
	s.Pubs.Scan(func(d jsondoc.Doc) bool {
		vec := s.TextW2V.EmbedText(d.GetString("title") + " " + d.GetString("abstract"))
		if vec == nil {
			return true
		}
		points = append(points, vec)
		ids = append(ids, d.GetString("_id"))
		truths = append(truths, d.GetString("topic"))
		return true
	})
	if len(points) == 0 {
		return nil, nil, nil, fmt.Errorf("core: no embeddable publications")
	}
	res, err := cluster.KMeans(points, cluster.DefaultConfig(k))
	if err != nil {
		return nil, nil, nil, err
	}
	return res, ids, truths, nil
}

// BuildMetaProfile extracts observations from every profile-shaped
// stored table and fuses them into one meta-profile (Figure 6).
func (s *System) BuildMetaProfile(name string) *metaprofile.Profile {
	var obs []metaprofile.Observation
	s.storedTables(func(pubID string, t *tableparse.Table) {
		headerRow := -1
		if s.SVM != nil || (s.cfg.UseEnsemble && s.Ensemble != nil) {
			meta := s.classifyRows(t)
			for i, m := range meta {
				if m {
					headerRow = i
					break
				}
			}
		}
		obs = append(obs, metaprofile.ExtractObservations(t, pubID, headerRow)...)
	})
	return metaprofile.Build(name, obs)
}

// GraphCollection is the collection persisting the knowledge graph —
// the paper stores the KG as JSON in the same sharded store as the
// publications (§4.2: "the graph is populated with nodes and edges and
// is stored in JSON format").
const GraphCollection = "knowledge_graph"

// PersistGraph writes the current knowledge graph into the store, so
// Store.Save captures it alongside the publications.
func (s *System) PersistGraph() error {
	blob, err := s.Graph.MarshalJSON()
	if err != nil {
		return fmt.Errorf("core: persist graph: %w", err)
	}
	doc, err := jsondoc.FromJSON(blob)
	if err != nil {
		return fmt.Errorf("core: persist graph: %w", err)
	}
	doc["_id"] = "kg"
	s.Store.DropCollection(GraphCollection)
	if _, err := s.Store.Collection(GraphCollection).Insert(doc); err != nil {
		return fmt.Errorf("core: persist graph: %w", err)
	}
	return nil
}

// RestoreGraph loads a previously persisted knowledge graph from the
// store, replacing the current graph (and resetting the fuser). Returns
// false when the store holds no graph.
func (s *System) RestoreGraph() (bool, error) {
	if !s.Store.HasCollection(GraphCollection) {
		return false, nil
	}
	doc, err := s.Store.Collection(GraphCollection).Get("kg")
	if err != nil {
		return false, nil
	}
	delete(doc, "_id")
	g, err := kg.FromJSON(doc.JSON())
	if err != nil {
		return false, fmt.Errorf("core: restore graph: %w", err)
	}
	if s.TextW2V != nil {
		g.SetEmbedder(func(label string) []float64 { return s.TextW2V.EmbedText(label) })
	}
	s.Graph = g
	s.Fuser = kg.NewFuser(g)
	return true, nil
}

// EnsembleFile is the logical snapshot file name holding the trained
// BiGRU ensemble inside a system checkpoint.
const EnsembleFile = "ensemble.model"

// Checkpoint atomically persists the whole system state — every store
// collection, the knowledge graph, and the trained ensemble when
// present — into one durable snapshot generation in dir. The commit is
// all-or-nothing: a crash at any point leaves the previous checkpoint
// fully loadable.
func (s *System) Checkpoint(dir string) error {
	if err := s.PersistGraph(); err != nil {
		return err
	}
	snap := durable.NewSnapshotter(dir, durable.WithFS(s.Store.FS()))
	tx, err := snap.Begin()
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := s.Store.SaveTxn(tx); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if s.Ensemble != nil {
		blob, err := s.Ensemble.Export()
		if err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
		if err := tx.WriteFile(EnsembleFile, blob); err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// Restore loads the newest complete checkpoint from dir: collections
// into the store, the persisted knowledge graph (when present), and the
// trained ensemble (when present). The returned report says which
// generation was recovered and which torn or corrupt generations were
// discarded. Legacy bare-*.jsonl directories load too.
func (s *System) Restore(dir string) (*durable.Report, error) {
	snap := durable.NewSnapshotter(dir, durable.WithFS(s.Store.FS()))
	sn, report, err := snap.Load()
	if err != nil {
		if errors.Is(err, durable.ErrNoSnapshot) {
			// pre-durability layout: collections only
			report, err = s.Store.LoadReport(dir)
			if err != nil {
				return report, err
			}
		} else {
			return report, fmt.Errorf("core: restore: %w", err)
		}
	} else {
		if err := s.Store.LoadSnapshot(sn); err != nil {
			return report, fmt.Errorf("core: restore: %w", err)
		}
		if sn.Has(EnsembleFile) {
			blob, err := sn.ReadFile(EnsembleFile)
			if err != nil {
				return report, fmt.Errorf("core: restore: %w", err)
			}
			ens, err := classifier.ImportEnsemble(blob)
			if err != nil {
				return report, fmt.Errorf("core: restore ensemble: %w", err)
			}
			s.Ensemble = ens
		}
	}
	// loading replaced the collection objects: rebind the publications
	// handle and rebuild the search engine, which re-indexes on scan. In
	// networked mode the publications live in the shard processes (each
	// with its own WAL), so the coordinator handle stays authoritative.
	if s.Coord == nil {
		s.Pubs = s.Store.Collection(PubsCollection)
	}
	s.Search = search.NewEngine(s.Pubs)
	s.Search.SetMetrics(s.cfg.Metrics)
	if _, err := s.RestoreGraph(); err != nil {
		return report, err
	}
	return report, nil
}

// AuditBias interrogates the stored corpus for bias (the title's
// "interrogated for bias"): topical balance, source concentration,
// temporal skew, and vocabulary dominance of the publications backing
// the knowledge graph.
func (s *System) AuditBias() *bias.Report {
	var docs []jsondoc.Doc
	s.Pubs.Scan(func(d jsondoc.Doc) bool {
		docs = append(docs, d)
		return true
	})
	return bias.NewAuditor().AuditCorpus(docs)
}

// ExportedModel is one released artifact (№11/13 in Figure 1).
type ExportedModel struct {
	Name string
	Data []byte
}

// ErrModelNotFound reports an ExportModel lookup for a name that is
// unknown or whose model has not been trained.
var ErrModelNotFound = errors.New("core: model not found")

// modelParams maps each released-model name to its serializable
// parameters; nil params mean the model is not trained in this system.
func (s *System) modelParams() []struct {
	name   string
	params []*mlcore.Param
} {
	var out []struct {
		name   string
		params []*mlcore.Param
	}
	add := func(name string, params []*mlcore.Param) {
		out = append(out, struct {
			name   string
			params []*mlcore.Param
		}{name, params})
	}
	if s.TermW2V != nil {
		add("embeddings-term", []*mlcore.Param{mlcore.NewParam("in", s.TermW2V.In)})
	}
	if s.CellW2V != nil {
		add("embeddings-cell", []*mlcore.Param{mlcore.NewParam("in", s.CellW2V.In)})
	}
	if s.TextW2V != nil {
		add("embeddings-text", []*mlcore.Param{mlcore.NewParam("in", s.TextW2V.In)})
	}
	if s.Ensemble != nil {
		add("bigru-ensemble", s.Ensemble.Params())
	}
	return out
}

// ModelNames lists the released-model names available for export, in a
// stable order — the cheap listing the GET /api/v1/models endpoint
// serves without serializing anything.
func (s *System) ModelNames() []string {
	ms := s.modelParams()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.name
	}
	return names
}

// ExportModel serializes one released model by name, so serving a single
// download does not pay for exporting every artifact. Returns
// ErrModelNotFound for unknown (or untrained) names.
func (s *System) ExportModel(name string) (ExportedModel, error) {
	for _, m := range s.modelParams() {
		if m.name != name {
			continue
		}
		data, err := mlcore.ExportParams(m.params)
		if err != nil {
			return ExportedModel{}, err
		}
		return ExportedModel{Name: name, Data: data}, nil
	}
	return ExportedModel{}, fmt.Errorf("%w: %q", ErrModelNotFound, name)
}

// ExportModels serializes the trained models and embeddings for the
// public model API.
func (s *System) ExportModels() ([]ExportedModel, error) {
	var out []ExportedModel
	for _, m := range s.modelParams() {
		data, err := mlcore.ExportParams(m.params)
		if err != nil {
			return nil, err
		}
		out = append(out, ExportedModel{Name: m.name, Data: data})
	}
	return out, nil
}
