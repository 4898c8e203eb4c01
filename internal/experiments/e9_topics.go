package experiments

import (
	"context"
	"fmt"

	"covidkg/internal/cluster"
	"covidkg/internal/cord19"
	"covidkg/internal/core"
	"covidkg/internal/jsondoc"
)

// E9 reproduces the topical clustering of №5 in Figure 1: publications
// cluster into prominent COVID-19 topics over learned embeddings; purity
// against the generator's ground-truth topics and silhouette are
// reported across k.
func E9(quick bool) *Report {
	r := &Report{
		ID:    "E9",
		Title: "Topical clustering of the corpus (Figure 1 №5)",
		PaperClaim: "topical clusters categorized from the dataset by relevant " +
			"COVID-19 topics, using tabular/text embeddings",
		Header: []string{"k", "purity", "silhouette", "inertia", "iterations"},
	}
	nPubs := 400
	ks := []int{4, 8, 12}
	if quick {
		nPubs = 150
		ks = []int{4, 8}
	}
	cfg := core.DefaultConfig()
	cfg.TrainTables = 30
	cfg.W2V.Epochs = 6
	sys := core.NewSystem(cfg)
	g := cord19.NewGenerator(71)
	if err := sys.IngestPublications(g.Corpus(nPubs)); err != nil {
		panic(err)
	}
	if _, err := sys.TrainModels(); err != nil {
		panic(err)
	}

	ctx := context.Background()
	truthK := len(cord19.TopicNames())
	var purityAtTruth float64
	for _, k := range ks {
		res, _, truths, err := sys.TopicClusters(ctx, k)
		if err != nil {
			panic(err)
		}
		// silhouette needs the points; recompute embeddings (cheap)
		var points [][]float64
		sysPoints(ctx, sys, &points)
		p := cluster.Purity(res.Assign, truths)
		sil := cluster.Silhouette(points, res.Assign)
		if k == truthK {
			purityAtTruth = p
		}
		r.AddRow(fmt.Sprintf("%d", k), f3(p), f3(sil),
			fmt.Sprintf("%.1f", res.Inertia), fmt.Sprintf("%d", res.Iterations))
	}
	r.AddNote("%d publications over %d ground-truth topics; random-assignment purity ≈ %.2f",
		nPubs, truthK, 1.0/float64(truthK)+0.1)
	if purityAtTruth > 0.30 {
		r.AddNote("shape holds: purity at k=%d (%.3f) clears the random baseline", truthK, purityAtTruth)
	} else if purityAtTruth > 0 {
		r.AddNote("shape check: purity at k=%d is %.3f", truthK, purityAtTruth)
	}
	return r
}

// sysPoints collects document embeddings in store scan order — the same
// order TopicClusters uses, so cluster assignments align.
func sysPoints(ctx context.Context, sys *core.System, out *[][]float64) {
	*out = (*out)[:0]
	if err := sys.Pubs.ScanContext(ctx, func(d jsondoc.Doc) bool {
		if v := sys.TextW2V.EmbedText(d.GetString("title") + " " + d.GetString("abstract")); v != nil {
			*out = append(*out, v)
		}
		return true
	}); err != nil {
		panic(err)
	}
}
