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
	"covidkg/internal/classifier"
	"covidkg/internal/cluster"
	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/durable"
	"covidkg/internal/embeddings"
	"covidkg/internal/faultfs"
	"covidkg/internal/features"
	"covidkg/internal/index"
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

// pubsFile is the checkpoint file an in-process system writes the
// publications to.
const pubsFile = PubsCollection + ".jsonl"

// Config assembles a System.
type Config struct {
	Shards      int // in-process shard servers (without ShardAddrs)
	VocabSize   int // §3.2 feature-space size (paper: 100,000)
	TrainTables int // labeled tables generated for classifier training
	Seed        int64

	// Replicas is ignored: every shard holds one copy.
	//
	// Deprecated: kept only for benchmark/trace.go:122, which still sets
	// it; delete it with that line.
	Replicas int

	// ShardAddrs, when non-empty, serves the publications from one
	// covidkg-shard process per address (networked mode). Empty serves
	// them from Shards shard servers in this process. Either way one
	// shardnet.Coordinator places and reads them. The knowledge graph and
	// the models are not publications: they stay in this process and
	// reach disk only as checkpoint files.
	ShardAddrs []string

	// ShardNet tunes the coordinator (timeouts, retries, hedging,
	// per-connection breakers); zero values take the shardnet defaults.
	// Metrics below is folded in when ShardNet.Metrics is nil.
	ShardNet shardnet.Config

	// Metrics directs the system's counters (the coordinator's
	// breaker_open, search's partial_responses, the train and build
	// gauges) to a specific registry; nil leaves each subsystem its
	// default.
	Metrics *metrics.Registry

	// UseEnsemble selects the BiGRU ensemble for row classification in
	// BuildKG; false uses the (much faster) SVM.
	UseEnsemble bool

	// FS overrides the filesystem Checkpoint and Restore use —
	// fault-injection tests crash checkpoints through it. Nil means the
	// real filesystem.
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

	Pubs         docstore.Docs // Coord, as the document surface
	Search       *search.Engine
	IndexReadErr error // why Restore rebuilt the index; nil if it read it

	// Coord serves the publications from the shard servers: in this
	// process (shardnet.Local) or, with ShardAddrs, in covidkg-shard
	// processes (shardnet.Dial).
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
	s := &System{cfg: cfg}
	s.startTier()
	s.Search = search.NewEngine(s.Pubs)
	s.Search.SetMetrics(cfg.Metrics)
	s.Graph = kg.SeedCOVID(nil)
	s.Graph.SetMetrics(cfg.Metrics)
	s.Fuser = kg.NewFuser(s.Graph)
	return s
}

// startTier sets Coord and Pubs to a coordinator over the configured
// shard servers: a fresh in-process tier, or the covidkg-shard processes
// at ShardAddrs.
func (s *System) startTier() {
	ncfg := s.cfg.ShardNet
	ncfg.Collection = PubsCollection
	if ncfg.Metrics == nil {
		ncfg.Metrics = s.cfg.Metrics
	}
	if s.Remote() {
		// Dial only refuses an empty address list
		s.Coord, _ = shardnet.Dial(ncfg, s.cfg.ShardAddrs)
	} else {
		s.Coord = shardnet.Local(ncfg, s.cfg.Shards)
	}
	s.Pubs = s.Coord
}

// Remote reports whether publications are served by covidkg-shard
// processes rather than shard servers in this process.
func (s *System) Remote() bool { return len(s.cfg.ShardAddrs) > 0 }

// ShardConnHealth probes every shard server: per-connection state
// (connected / breaker-open / unreachable) and document count — the
// payload behind GET /readyz.
func (s *System) ShardConnHealth(ctx context.Context) []shardnet.ConnHealth {
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

// storedTables iterates every stored table with its owning publication;
// the scan stops with ctx.
func (s *System) storedTables(ctx context.Context, fn tableFunc) error {
	return s.Pubs.ScanContext(ctx, func(d jsondoc.Doc) bool {
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
// A scan that fails (a dark shard) fails training before any model
// changes.
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
	if err := s.Pubs.ScanContext(context.Background(), func(d jsondoc.Doc) bool {
		eachTable("", d.GetArray("tables"), func(_ string, t *tableparse.Table) {
			corpusGrids = append(corpusGrids, t.Rows)
		})
		texts = append(texts, d.GetString("title")+" "+d.GetString("abstract"))
		return true
	}); err != nil {
		return stats, fmt.Errorf("core: train: %w", err)
	}

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
// EnrichNew only enriches from arrivals since. A scan that fails (a dark
// shard) returns the error with what was fused before it.
func (s *System) BuildKG() (BuildStats, error) {
	defer s.setMillis("core.build_kg_ms", time.Now())
	scanned := map[string]bool{}
	var scanErr error
	st := s.enrich(func(fn tableFunc) {
		scanErr = s.Pubs.ScanContext(context.Background(), func(d jsondoc.Doc) bool {
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
			kept = append(kept, p) // stored after the id listing
		}
	}
	s.pending = kept
	s.procMu.Unlock()
	if scanErr != nil {
		return st, fmt.Errorf("core: build kg: %w", scanErr)
	}
	return st, nil
}

// BuildSpec is the corpus Build generates into an empty store: Pubs
// synthetic publications from a generator seeded with Seed.
type BuildSpec struct {
	Pubs int
	Seed int64
}

// Build is the one build pipeline of Figure 1: ingest (№3), train (№4),
// fuse into the knowledge graph (№5/№6). An empty store first gets
// spec's corpus plus three Figure 6 side-effect papers. covidkg-server
// and kgctl gen both build through it, so one spec checkpoints one set
// of bytes.
func (s *System) Build(spec BuildSpec) (BuildStats, error) {
	if s.Pubs.Count() == 0 {
		g := cord19.NewGenerator(spec.Seed)
		corpus := g.Corpus(spec.Pubs)
		for range 3 {
			corpus = append(corpus, g.SideEffectPaper(cord19.Vaccines[:3]))
		}
		if err := s.IngestPublications(corpus); err != nil {
			return BuildStats{}, err
		}
	}
	if _, err := s.TrainModels(); err != nil {
		return BuildStats{}, err
	}
	return s.BuildKG()
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
func (s *System) TopicClusters(ctx context.Context, k int) (*cluster.Result, []string, []string, error) {
	if s.TextW2V == nil {
		return nil, nil, nil, fmt.Errorf("core: text embeddings not trained")
	}
	var points [][]float64
	var ids, truths []string
	if err := s.Pubs.ScanContext(ctx, func(d jsondoc.Doc) bool {
		vec := s.TextW2V.EmbedText(d.GetString("title") + " " + d.GetString("abstract"))
		if vec == nil {
			return true
		}
		points = append(points, vec)
		ids = append(ids, d.GetString("_id"))
		truths = append(truths, d.GetString("topic"))
		return true
	}); err != nil {
		return nil, nil, nil, fmt.Errorf("core: topic clusters: %w", err)
	}
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
// stored table and fuses them into one meta-profile (Figure 6). The
// scan stops with ctx.
func (s *System) BuildMetaProfile(ctx context.Context, name string) (*metaprofile.Profile, error) {
	var obs []metaprofile.Observation
	err := s.storedTables(ctx, func(pubID string, t *tableparse.Table) {
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
	if err != nil {
		return nil, fmt.Errorf("core: meta-profile: %w", err)
	}
	return metaprofile.Build(name, obs), nil
}

// GraphFile and EnsembleFile are the logical snapshot file names
// holding the knowledge graph (the paper keeps the KG as JSON beside
// the publications, §4.2) and the trained BiGRU ensemble inside a
// system checkpoint.
const (
	GraphFile    = "knowledge_graph.json"
	EnsembleFile = "ensemble.model"
)

// Checkpoint atomically persists the whole system state — the
// publications of an in-process system, the search index, the knowledge
// graph, and the trained ensemble when present — into one durable
// snapshot generation in dir. The commit is all-or-nothing: a crash at
// any point leaves the previous checkpoint fully loadable. In networked
// mode the shard processes keep the publications (each in its WAL).
func (s *System) Checkpoint(dir string) error {
	tx, err := durable.NewSnapshotter(dir, durable.WithFS(s.cfg.FS)).Begin()
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if !s.Remote() {
		if err := docstore.SaveTxn(tx, s.Pubs); err != nil {
			return fmt.Errorf("core: checkpoint: %w", err)
		}
	}
	if err := s.Search.Index().WriteTxn(tx); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	graph, err := s.Graph.MarshalJSON()
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := tx.WriteFile(GraphFile, graph); err != nil {
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

// Restore loads the newest complete checkpoint from dir: the
// publications into a fresh in-process shard tier, the search index
// (rebuilt if it does not read: see IndexReadErr), the knowledge graph
// and the trained ensemble when the checkpoint holds them. The returned
// report says which generation was recovered, which files it held, and
// which torn or corrupt generations were discarded. A missing or empty
// dir returns an error satisfying errors.Is(err, durable.ErrNoSnapshot);
// a dir whose every generation fails verification returns a different
// error. In networked mode a checkpoint holding publications (written by
// an in-process system) is refused before anything is loaded: the shard
// processes serve the publications they hold.
func (s *System) Restore(dir string) (*durable.Report, error) {
	sn, report, err := durable.NewSnapshotter(dir, durable.WithFS(s.cfg.FS)).Load()
	if err != nil {
		return report, fmt.Errorf("core: restore: %w", err)
	}
	if sn.Has(pubsFile) {
		if s.Remote() {
			// the shard processes hold their own publications; loading
			// the checkpoint's into them would mix two corpora
			return report, fmt.Errorf("core: restore %s: the checkpoint holds %s from an in-process system, but publications are served by %d shard servers", dir, pubsFile, s.Coord.NumShards())
		}
		s.Coord.Close()
		s.startTier()
		if err := docstore.LoadSnapshot(sn, s.Pubs); err != nil {
			return report, fmt.Errorf("core: restore: %w", err)
		}
	}
	if sn.Has(GraphFile) {
		blob, err := sn.ReadFile(GraphFile)
		if err != nil {
			return report, fmt.Errorf("core: restore: %w", err)
		}
		g, err := kg.FromJSON(blob)
		if err != nil {
			return report, fmt.Errorf("core: restore graph: %w", err)
		}
		if s.TextW2V != nil {
			g.SetEmbedder(s.TextW2V.EmbedText)
		}
		g.SetMetrics(s.cfg.Metrics)
		s.Graph = g
		s.Fuser = kg.NewFuser(g)
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
	// rebuild the search engine over the tier serving the publications;
	// it catches the index up on scan
	ix, err := index.Read(sn)
	s.Search, s.IndexReadErr = search.NewEngineFrom(s.Pubs, ix), err
	s.Search.SetMetrics(s.cfg.Metrics)
	return report, nil
}

// AuditBias interrogates the stored corpus for bias (the title's
// "interrogated for bias"): topical balance, source concentration,
// temporal skew, and vocabulary dominance of the publications backing
// the knowledge graph. A dark shard fails the audit rather than
// auditing part of the corpus, and a dead ctx stops it within one scan
// batch.
func (s *System) AuditBias(ctx context.Context) (*bias.Report, error) {
	var docs []jsondoc.Doc
	if err := s.Pubs.ScanContext(ctx, func(d jsondoc.Doc) bool {
		docs = append(docs, d)
		return true
	}); err != nil {
		return nil, fmt.Errorf("core: audit bias: %w", err)
	}
	return bias.NewAuditor().AuditCorpus(docs), nil
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
