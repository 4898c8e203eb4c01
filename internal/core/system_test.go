package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"covidkg/internal/cluster"
	"covidkg/internal/cord19"
	"covidkg/internal/durable"
	"covidkg/internal/jsondoc"
	"covidkg/internal/kg"
	"covidkg/internal/metrics"
	"covidkg/internal/tableparse"
)

// smallSystem builds a trained system over a small generated corpus.
func smallSystem(t *testing.T, nPubs int) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TrainTables = 60
	cfg.W2V.Epochs = 2
	cfg.VocabSize = 1500
	s := NewSystem(cfg)
	g := cord19.NewGenerator(7)
	if err := s.IngestPublications(g.Corpus(nPubs)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrainModels(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEndToEndArchitecture(t *testing.T) {
	// The Figure 1 / Figure 5 integration test: ingest → train →
	// classify → extract → fuse → search, all subsystems touching.
	s := smallSystem(t, 60)

	// №3: publications stored and sharded
	if s.Pubs.Count() != 60 {
		t.Fatalf("stored pubs = %d", s.Pubs.Count())
	}

	// search engines operational (№9/10)
	page, err := s.Search.SearchAllContext(context.Background(), "vaccine", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total == 0 {
		t.Fatal("search found nothing")
	}

	// №5/6/14: KG enrichment
	before := s.Graph.Size()
	st, err := s.BuildKG()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables == 0 {
		t.Fatal("no tables processed")
	}
	if st.Fused+st.Queued != st.Subtrees {
		t.Fatalf("fusion accounting: %+v", st)
	}
	if s.Graph.Size() <= before {
		t.Fatal("KG did not grow")
	}

	// KG search with provenance paths
	hits, err := s.Graph.SearchContext(context.Background(), "vaccines")
	if err != nil || len(hits) == 0 {
		t.Fatalf("KG search found nothing: %v", err)
	}
	if hits[0].Path[0].Label != "COVID-19" {
		t.Fatalf("path root = %q", hits[0].Path[0].Label)
	}
}

func TestTrainModelsStats(t *testing.T) {
	s := smallSystem(t, 30)
	if s.Vocab == nil || s.Vocab.Size() == 0 {
		t.Fatal("vocabulary missing")
	}
	if s.TermW2V == nil || s.CellW2V == nil || s.TextW2V == nil {
		t.Fatal("embeddings missing")
	}
	if s.SVM == nil {
		t.Fatal("svm missing")
	}
}

// TestBootGauges: a boot leaves its train and KG-build durations in the
// configured registry, which /api/v1/metrics serves.
func TestBootGauges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainTables = 60
	cfg.Metrics = metrics.NewRegistry()
	s := NewSystem(cfg)
	if err := s.IngestPublications(cord19.NewGenerator(7).Corpus(120)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrainModels(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BuildKG(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"core.train_ms", "core.build_kg_ms"} {
		v := cfg.Metrics.Gauge(name).Value()
		if v <= 0 {
			t.Errorf("%s = %d after a boot, want > 0", name, v)
		}
		t.Logf("%s = %d", name, v)
	}
}

func TestSVMTrainingQuality(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainTables = 80
	cfg.W2V.Epochs = 2
	s := NewSystem(cfg)
	g := cord19.NewGenerator(3)
	if err := s.IngestPublications(g.Corpus(10)); err != nil {
		t.Fatal(err)
	}
	stats, err := s.TrainModels()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SVMMetrics.F1() < 0.85 {
		t.Fatalf("train-set F1 = %v", stats.SVMMetrics.F1())
	}
	if stats.TrainRows == 0 || stats.VocabSize == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestExtractSubtrees(t *testing.T) {
	src := `<table>
	<tr><th>Vaccine</th><th>Side effect</th><th>Rate %</th></tr>
	<tr><td>Pfizer</td><td>Fever</td><td>8.5</td></tr>
	<tr><td>Moderna</td><td>Chills</td><td>3.1</td></tr>
	<tr><td>Pfizer</td><td>Fever</td><td>9.0</td></tr>
	</table>`
	tb, err := tableparse.ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	meta := []bool{true, false, false, false}
	subs := ExtractSubtrees(tb, meta, "paper-1")
	if len(subs) != 2 { // Rate % column is numeric-only → no subtree
		t.Fatalf("subtrees = %d: %+v", len(subs), subs)
	}
	if subs[0].Label != "Vaccine" {
		t.Fatalf("root = %q", subs[0].Label)
	}
	leaves := subs[0].Leaves()
	if len(leaves) != 2 { // deduplicated
		t.Fatalf("leaves = %v", leaves)
	}
	if subs[0].Papers[0] != "paper-1" {
		t.Fatal("provenance missing")
	}
	// no metadata row → nothing extracted
	if got := ExtractSubtrees(tb, []bool{false, false, false, false}, "p"); got != nil {
		t.Fatalf("no-meta extraction = %v", got)
	}
}

func TestExtractSubtreesSkipsSectionRows(t *testing.T) {
	src := `<table>
	<tr><th>Vaccine</th><th>Group</th></tr>
	<tr><td>Pfizer</td><td>Adults</td></tr>
	<tr><td>Severe cases</td><td></td></tr>
	<tr><td>Moderna</td><td>Children</td></tr>
	</table>`
	tb, _ := tableparse.ParseOne(src)
	meta := []bool{true, false, true, false} // row 2 is a section header
	subs := ExtractSubtrees(tb, meta, "p")
	for _, sub := range subs {
		for _, leaf := range sub.Leaves() {
			if leaf == "Severe cases" {
				t.Fatal("section header leaked into leaves")
			}
		}
	}
}

func TestIsTextValue(t *testing.T) {
	cases := map[string]bool{
		"Pfizer":    true,
		"8.5":       false,
		"8.5%":      false,
		"5-10 mg":   false,
		"Fever":     true,
		"n/a":       false, // 2 letters < 3
		"ICU stays": true,
		"":          false,
	}
	for in, want := range cases {
		if got := isTextValue(in); got != want {
			t.Errorf("isTextValue(%q) = %v", in, got)
		}
	}
}

func TestBuildKGProvenanceReachesGraph(t *testing.T) {
	s := smallSystem(t, 50)
	if _, err := s.BuildKG(); err != nil {
		t.Fatal(err)
	}
	// at least one fused node must carry provenance
	found := false
	s.Graph.Walk(func(n kg.Node, _ int) bool {
		if n.Source == kg.SourceFusion && len(n.Papers) > 0 {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("no fused node carries provenance")
	}
}

func TestTopicClusters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainTables = 40
	cfg.W2V.Epochs = 6
	s := NewSystem(cfg)
	g := cord19.NewGenerator(7)
	if err := s.IngestPublications(g.Corpus(160)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrainModels(); err != nil {
		t.Fatal(err)
	}
	res, ids, truths, err := s.TopicClusters(context.Background(), len(cord19.TopicNames()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(res.Assign) || len(truths) != len(ids) {
		t.Fatalf("alignment: %d/%d/%d", len(ids), len(res.Assign), len(truths))
	}
	purity := cluster.Purity(res.Assign, truths)
	// topic vocabulary makes clusters separable above the random
	// baseline (8 topics: majority-class floor ≈ 0.2)
	if purity < 0.3 {
		t.Fatalf("topic purity = %v", purity)
	}
}

func TestTopicClustersRequiresTraining(t *testing.T) {
	s := NewSystem(DefaultConfig())
	if _, _, _, err := s.TopicClusters(context.Background(), 3); err == nil {
		t.Fatal("expected error before training")
	}
}

func TestBuildMetaProfile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainTables = 60
	cfg.W2V.Epochs = 2
	s := NewSystem(cfg)
	g := cord19.NewGenerator(17)
	vaccines := []string{"Pfizer-BioNTech", "Moderna", "AstraZeneca"}
	var pubs []*cord19.Publication
	for i := 0; i < 3; i++ {
		pubs = append(pubs, g.SideEffectPaper(vaccines))
	}
	pubs = append(pubs, g.Corpus(10)...)
	if err := s.IngestPublications(pubs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrainModels(); err != nil {
		t.Fatal(err)
	}
	p, err := s.BuildMetaProfile(context.Background(), "Vaccine side-effects")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sources()) < 3 {
		t.Fatalf("sources = %v", p.Sources())
	}
	if !strings.Contains(p.Render(), "Pfizer-BioNTech") {
		t.Fatal("profile missing vaccines")
	}
}

// TestBuildMetaProfileStopsWithCtx: the meta-profile's table scan runs
// under its caller's context, so a cancelled one fails the build.
func TestBuildMetaProfileStopsWithCtx(t *testing.T) {
	s := NewSystem(DefaultConfig())
	g := cord19.NewGenerator(17)
	if err := s.IngestPublications(append(g.Corpus(10), g.SideEffectPaper([]string{"Moderna"}))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if p, err := s.BuildMetaProfile(ctx, "Vaccine side-effects"); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildMetaProfile under a cancelled ctx = %v, %v; want context.Canceled", p, err)
	}
}

func TestExportModels(t *testing.T) {
	s := smallSystem(t, 20)
	models, err := s.ExportModels()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range models {
		if len(m.Data) == 0 {
			t.Fatalf("model %s empty", m.Name)
		}
		names[m.Name] = true
	}
	for _, want := range []string{"embeddings-term", "embeddings-cell", "embeddings-text"} {
		if !names[want] {
			t.Errorf("missing export %q", want)
		}
	}
}

func TestEnsemblePathInBuildKG(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainTables = 40
	cfg.W2V.Epochs = 2
	cfg.UseEnsemble = true
	cfg.Ensemble.Units = 4
	cfg.Ensemble.Epochs = 3
	s := NewSystem(cfg)
	g := cord19.NewGenerator(23)
	if err := s.IngestPublications(g.Corpus(15)); err != nil {
		t.Fatal(err)
	}
	stats, err := s.TrainModels()
	if err != nil {
		t.Fatal(err)
	}
	if stats.EnsembleEpochs != 3 {
		t.Fatalf("ensemble epochs = %d", stats.EnsembleEpochs)
	}
	st, err := s.BuildKG()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables == 0 {
		t.Skip("corpus had no tables") // possible but unlikely with 15 pubs
	}
	if st.RowsClassified == 0 {
		t.Fatal("ensemble classified nothing")
	}
}

func TestRefreshProcessesOnlyNewTables(t *testing.T) {
	s := smallSystem(t, 40)
	first, err := s.BuildKG()
	if err != nil {
		t.Fatal(err)
	}
	if first.Tables == 0 {
		t.Fatal("no tables in initial build")
	}
	// a refresh with nothing new touches nothing
	empty, err := s.Refresh(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Tables != 0 || empty.NodesAdded != 0 {
		t.Fatalf("empty refresh did work: %+v", empty)
	}

	// new arrivals: only their tables are processed
	g := cord19.NewGenerator(777)
	fresh := g.Corpus(20)
	freshTables := 0
	for _, p := range fresh {
		freshTables += len(p.Tables)
	}
	st, err := s.Refresh(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables != freshTables {
		t.Fatalf("refresh processed %d tables, want %d", st.Tables, freshTables)
	}
	if s.Pubs.Count() != 60 {
		t.Fatalf("pubs = %d", s.Pubs.Count())
	}
	// new publications are searchable
	page, err := s.Search.SearchAllContext(context.Background(), "vaccine", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total == 0 {
		t.Fatal("refreshed corpus not searchable")
	}
	// a second refresh of the same batch is a no-op
	again, err := s.Refresh(nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Tables != 0 {
		t.Fatalf("re-refresh reprocessed %d tables", again.Tables)
	}
}

// TestIngestDocsInvalidatesSearchCache: a query answered from the
// cache must see documents that arrive later through IngestDocs plus
// EnrichNew — the upload handler's path — not a stale cached page.
func TestIngestDocsInvalidatesSearchCache(t *testing.T) {
	s := smallSystem(t, 30)
	// warm the cache with a repeat query
	before, err := s.Search.SearchAllContext(context.Background(), "vaccine", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Search.SearchAllContext(context.Background(), "vaccine", 1); err != nil {
		t.Fatal(err)
	}
	if s.Search.CacheStats().Hits < 1 {
		t.Fatalf("repeat query missed cache: %+v", s.Search.CacheStats())
	}
	doc := jsondoc.Doc{
		"title":     "A novel vaccine candidate",
		"abstract":  "This vaccine vaccine vaccine study reports efficacy.",
		"body_text": "vaccine trial details",
	}
	if err := s.IngestDocs([]jsondoc.Doc{doc}).Err(); err != nil {
		t.Fatal(err)
	}
	s.EnrichNew()
	after, err := s.Search.SearchAllContext(context.Background(), "vaccine", 1)
	if err != nil {
		t.Fatal(err)
	}
	if after.Total != before.Total+1 {
		t.Fatalf("stale page after IngestDocs: total %d, want %d", after.Total, before.Total+1)
	}
}

func TestRefreshMatchesFullBuildForTermFusions(t *testing.T) {
	// Incremental A then refresh(B) must reach the same term-fused leaf
	// set as a full build over A+B (term matching is deterministic and
	// order-independent under leaf merging).
	g1 := cord19.NewGenerator(55)
	corpusA := g1.Corpus(25)
	corpusB := g1.Corpus(25)

	build := func(ingestFirst, refreshWith []*cord19.Publication) map[string]bool {
		cfg := DefaultConfig()
		cfg.TrainTables = 40
		cfg.W2V.Epochs = 2
		s := NewSystem(cfg)
		if err := s.IngestPublications(ingestFirst); err != nil {
			t.Fatal(err)
		}
		if _, err := s.TrainModels(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.BuildKG(); err != nil {
			t.Fatal(err)
		}
		if refreshWith != nil {
			if _, err := s.Refresh(refreshWith); err != nil {
				t.Fatal(err)
			}
		}
		labels := map[string]bool{}
		s.Graph.Walk(func(n kg.Node, _ int) bool {
			if n.Source == kg.SourceFusion {
				labels[n.Norm] = true
			}
			return true
		})
		return labels
	}

	all := append(append([]*cord19.Publication{}, corpusA...), corpusB...)
	full := build(all, nil)
	incr := build(corpusA, corpusB)

	// every label the incremental build fused must exist in the full
	// build and vice versa, modulo embedding-fallback differences (the
	// text embeddings differ between runs); term-matched seed children
	// are deterministic, so demand high overlap.
	common := 0
	for l := range incr {
		if full[l] {
			common++
		}
	}
	if len(full) == 0 || len(incr) == 0 {
		t.Fatalf("no fusions: full=%d incr=%d", len(full), len(incr))
	}
	overlap := float64(common) / float64(max(len(full), len(incr)))
	if overlap < 0.9 {
		t.Fatalf("incremental diverged from full build: overlap %.2f (%d vs %d)",
			overlap, len(incr), len(full))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestPersistRestoreGraph: a trained system's graph persists as a
// checkpoint file and restores byte-identical, searchable and fusable;
// with nothing persisted no graph is restored; persisting again
// replaces the graph rather than adding a copy to the store.
func TestPersistRestoreGraph(t *testing.T) {
	s := smallSystem(t, 30)
	if _, err := s.BuildKG(); err != nil {
		t.Fatal(err)
	}
	want, err := s.Graph.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	s2 := NewSystem(DefaultConfig())
	if _, err := s2.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if s2.Graph.Size() != s.Graph.Size() {
		t.Fatalf("restored %d nodes, want %d", s2.Graph.Size(), s.Graph.Size())
	}
	if got, err := s2.Graph.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("restored graph differs from the persisted one (err %v)", err)
	}
	// restored graph is searchable and fusable
	if hits, err := s2.Graph.SearchContext(context.Background(), "vaccines"); err != nil || len(hits) == 0 {
		t.Fatalf("restored graph not searchable: %d hits, %v", len(hits), err)
	}
	if res := s2.Fuser.Fuse(kg.NewSubtree("Vaccines", "RestoredVac")); res.Action != kg.ActionFused {
		t.Fatalf("fusion on restored graph: %+v", res)
	}

	// no graph present → nothing restored
	s3 := NewSystem(DefaultConfig())
	empty, err := s3.Graph.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Restore(t.TempDir()); !errors.Is(err, durable.ErrNoSnapshot) {
		t.Fatalf("empty restore: err = %v, want ErrNoSnapshot", err)
	}
	if got, err := s3.Graph.MarshalJSON(); err != nil || !bytes.Equal(got, empty) {
		t.Fatalf("empty restore changed the graph (err %v)", err)
	}

	// re-persist replaces the graph rather than duplicating it
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	s4 := NewSystem(DefaultConfig())
	if _, err := s4.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := s4.Graph.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-persisted graph differs (err %v)", err)
	}
	if got := s4.Pubs.Count(); got != s.Pubs.Count() {
		t.Fatalf("store holds %d documents, want the %d publications", got, s.Pubs.Count())
	}
}
