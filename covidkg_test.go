package covidkg

import (
	"context"
	"strings"
	"testing"
)

// buildSystem exercises the full public API path once per test binary.
func buildSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TrainTables = 50
	cfg.W2V.Epochs = 2
	cfg.VocabSize = 1500
	sys := New(cfg)
	pubs := GenerateCorpus(60, 42)
	pubs = append(pubs, GenerateSideEffectPapers(3, 43,
		[]string{"Pfizer-BioNTech", "Moderna"})...)
	if err := sys.Ingest(pubs); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Train(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys := buildSystem(t)
	if sys.PublicationCount() != 63 {
		t.Fatalf("count = %d", sys.PublicationCount())
	}

	// search engines
	ctx := context.Background()
	page, err := sys.SearchAllContext(ctx, "vaccine", 1)
	if err != nil || page.Total == 0 {
		t.Fatalf("SearchAll: %v / %+v", err, page)
	}
	if _, err := sys.SearchFieldsContext(ctx, FieldQuery{Title: "vaccine"}, 1); err != nil {
		t.Fatal(err)
	}
	tp, err := sys.SearchTablesContext(ctx, "side effect", 1)
	if err != nil || tp.Total == 0 {
		t.Fatalf("SearchTables: %v / %+v", err, tp)
	}

	// graph build and search
	st, err := sys.BuildGraph()
	if err != nil || st.Subtrees == 0 {
		t.Fatalf("build stats = %+v, %v", st, err)
	}
	hits, err := sys.GraphSearchContext(ctx, "vaccines")
	if err != nil || len(hits) == 0 {
		t.Fatalf("graph search empty: %v", err)
	}
	if sys.GraphRoot().Label != "COVID-19" {
		t.Fatalf("root = %q", sys.GraphRoot().Label)
	}
	kids, err := sys.GraphChildren(sys.GraphRoot().ID)
	if err != nil || len(kids) == 0 {
		t.Fatalf("children: %v / %d", err, len(kids))
	}
	if sys.GraphSize() < 15 {
		t.Fatalf("graph size = %d", sys.GraphSize())
	}
	data, err := sys.GraphJSON()
	if err != nil || len(data) == 0 {
		t.Fatalf("GraphJSON: %v", err)
	}

	// meta-profile over the side-effect papers
	p, err := sys.MetaProfile(context.Background(), "Vaccine side-effects")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sources()) < 3 {
		t.Fatalf("profile sources = %v", p.Sources())
	}
	if !strings.Contains(p.Render(), "Pfizer-BioNTech") {
		t.Fatal("profile missing vaccine")
	}

	// model release API
	models, err := sys.ExportModels()
	if err != nil || len(models) < 3 {
		t.Fatalf("ExportModels: %v / %d", err, len(models))
	}
}

func TestPublicReviewWorkflow(t *testing.T) {
	sys := buildSystem(t)
	res := sys.Fuse(&Subtree{
		Label: "Long COVID",
		Children: []*Subtree{
			{Label: "Persistent symptoms", Children: []*Subtree{{Label: "Brain fog"}}},
		},
	})
	if res.Action != "queued" {
		t.Fatalf("multi-layer fusion = %+v", res)
	}
	pend := sys.PendingReviews()
	if len(pend) == 0 {
		t.Fatal("no pending reviews")
	}
	if err := sys.ApproveReview(res.ReviewID, sys.GraphRoot().ID); err != nil {
		t.Fatal(err)
	}
	if hits, err := sys.GraphSearchContext(context.Background(), "brain fog"); err != nil || len(hits) != 1 {
		t.Fatalf("approved subtree not in graph: %v", err)
	}
	// corrections learned: same root now fuses unsupervised
	res2 := sys.Fuse(&Subtree{Label: "Long COVID", Children: []*Subtree{{Label: "Fatigue"}}})
	if res2.Action != "fused" {
		t.Fatalf("learned fusion = %+v", res2)
	}
	// reject path
	res3 := sys.Fuse(&Subtree{Label: "Noise zz", Children: []*Subtree{
		{Label: "x", Children: []*Subtree{{Label: "y"}}},
	}})
	if err := sys.RejectReview(res3.ReviewID); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateCorpusDeterministic(t *testing.T) {
	a := GenerateCorpus(5, 9)
	b := GenerateCorpus(5, 9)
	for i := range a {
		if a[i].Title != b[i].Title {
			t.Fatal("corpus not deterministic")
		}
	}
}

func TestTopicClustersPublic(t *testing.T) {
	sys := buildSystem(t)
	res, ids, truths, err := sys.TopicClusters(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != len(ids) || len(ids) != len(truths) {
		t.Fatal("misaligned clustering outputs")
	}
}
