// Benchmarks: one per table/figure-level claim in the paper's
// evaluation (see DESIGN.md §4 and EXPERIMENTS.md). Each benchmark
// times the core operation of its experiment; cmd/benchrunner prints
// the full paper-claim vs measured reports.
package covidkg_test

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"testing"

	"covidkg/internal/classifier"
	"covidkg/internal/cluster"
	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/embeddings"
	"covidkg/internal/features"
	"covidkg/internal/jsondoc"
	"covidkg/internal/kg"
	"covidkg/internal/metaprofile"
	"covidkg/internal/mlcluster"
	"covidkg/internal/mlcore"
	"covidkg/internal/pipeline"
	"covidkg/internal/search"
	"covidkg/internal/svm"
	"covidkg/internal/tableparse"
)

// ---------------------------------------------------------------- E1/E2

type benchData struct {
	svmSamples []classifier.SVMSample
	tuples     []classifier.TupleSample
	vocab      *features.Vocabulary
	termW2V    *embeddings.Word2Vec
	cellW2V    *embeddings.Word2Vec
}

func newBenchData(nTables int) *benchData {
	g := cord19.NewGenerator(1)
	d := &benchData{}
	var grids [][][]string
	var texts []string
	for _, lt := range g.LabeledTables(nTables, 0.5) {
		grids = append(grids, lt.Rows)
		d.svmSamples = append(d.svmSamples, classifier.SVMSamplesFromTable(lt.Rows, lt.Meta)...)
		d.tuples = append(d.tuples, classifier.SamplesFromTable(lt.Rows, lt.Meta)...)
		for _, row := range lt.Rows {
			texts = append(texts, row...)
		}
	}
	d.vocab = features.BuildVocabulary(texts, 2000)
	cfg := embeddings.DefaultConfig()
	cfg.Dim = 16
	cfg.Epochs = 3
	cfg.MinCount = 1
	termSents, cellSents := embeddings.TableSentences(grids)
	d.termW2V = embeddings.Train(termSents, cfg)
	d.cellW2V = embeddings.Train(cellSents, cfg)
	return d
}

// BenchmarkE1_MetadataClassification times one train+evaluate cycle of
// the §3.3 experiment for both model families.
func BenchmarkE1_MetadataClassification(b *testing.B) {
	d := newBenchData(40)
	split := len(d.svmSamples) * 4 / 5

	b.Run("SVM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := classifier.NewSVMModel(d.vocab, svm.DefaultConfig())
			if err := m.Train(d.svmSamples[:split]); err != nil {
				b.Fatal(err)
			}
			m.Evaluate(d.svmSamples[split:])
		}
	})
	b.Run("BiGRU", func(b *testing.B) {
		cfg := classifier.DefaultEnsembleConfig()
		cfg.Units = 8
		cfg.Epochs = 2
		tsplit := len(d.tuples) * 4 / 5
		for i := 0; i < b.N; i++ {
			m, err := classifier.NewEnsemble(d.termW2V, d.cellW2V, cfg)
			if err != nil {
				b.Fatal(err)
			}
			m.Train(d.tuples[:tsplit])
			m.Evaluate(d.tuples[tsplit:])
		}
	})
}

// BenchmarkE2_BiGRUvsBiLSTM times the §3.6 ablation's training cost for
// each cell — the paper's reason for choosing biGRU.
func BenchmarkE2_BiGRUvsBiLSTM(b *testing.B) {
	d := newBenchData(30)
	for _, cell := range []string{"gru", "lstm"} {
		b.Run(cell, func(b *testing.B) {
			cfg := classifier.DefaultEnsembleConfig()
			cfg.Cell = cell
			cfg.Units = 12
			cfg.Epochs = 2
			for i := 0; i < b.N; i++ {
				m, err := classifier.NewEnsemble(d.termW2V, d.cellW2V, cfg)
				if err != nil {
					b.Fatal(err)
				}
				m.Train(d.tuples)
			}
		})
	}
}

// ------------------------------------------------------------------- E3

// BenchmarkE3_PipelineOrder times the §2.1 $match-first optimization.
func BenchmarkE3_PipelineOrder(b *testing.B) {
	store := docstore.Open(docstore.WithShards(4))
	coll := store.Collection("pubs")
	g := cord19.NewGenerator(3)
	for _, p := range g.Corpus(2000) {
		if _, err := coll.Insert(p.Doc()); err != nil {
			b.Fatal(err)
		}
	}
	re := regexp.MustCompile(`(?i)\bmask`)
	heavy := func() pipeline.Stage {
		return pipeline.Function("rank", func(d jsondoc.Doc) (jsondoc.Doc, error) {
			text := d.GetString("abstract") + d.GetString("body_text")
			score := 0.0
			for i := 0; i < len(text); i++ {
				score += float64(text[i] & 0x1f)
			}
			return d, d.Set("score", score)
		})
	}
	b.Run("match_first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pipeline.New(pipeline.MatchRegex("title", re), heavy(),
				pipeline.SortByDesc("score"), pipeline.Limit(10))
			if _, err := p.RunContext(context.Background(), coll); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("match_last", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pipeline.New(heavy(), pipeline.MatchRegex("title", re),
				pipeline.SortByDesc("score"), pipeline.Limit(10))
			if _, err := p.RunContext(context.Background(), coll); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ------------------------------------------------------------------- E4

// BenchmarkE4_SearchEngines times the three engines' query latency over
// a prebuilt corpus (Figures 2 & 4).
func BenchmarkE4_SearchEngines(b *testing.B) {
	store := docstore.Open(docstore.WithShards(4))
	coll := store.Collection("pubs")
	g := cord19.NewGenerator(4)
	for _, p := range g.Corpus(1500) {
		if _, err := coll.Insert(p.Doc()); err != nil {
			b.Fatal(err)
		}
	}
	eng := search.NewEngine(coll)
	b.Run("all_fields", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.SearchAllContext(context.Background(), "masks", 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tables", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.SearchTablesContext(context.Background(), "ventilators", 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fields", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.SearchFieldsContext(context.Background(), search.FieldQuery{Title: "vaccination"}, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact_phrase", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.SearchAllContext(context.Background(), `"viral load"`, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ------------------------------------------------------------------- E5

// BenchmarkE5_MetaProfiles times parsing + extraction + profile build
// for the Figure 6 scenario.
func BenchmarkE5_MetaProfiles(b *testing.B) {
	g := cord19.NewGenerator(5)
	vaccines := []string{"Pfizer-BioNTech", "Moderna", "AstraZeneca"}
	var htmls []string
	var ids []string
	for i := 0; i < 3; i++ {
		pub := g.SideEffectPaper(vaccines)
		for _, t := range pub.Tables {
			htmls = append(htmls, t.HTML)
			ids = append(ids, pub.ID)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var obs []metaprofile.Observation
		for j, html := range htmls {
			t, err := tableparse.ParseOne(html)
			if err != nil {
				b.Fatal(err)
			}
			obs = append(obs, metaprofile.ExtractObservations(t, ids[j], -1)...)
		}
		p := metaprofile.Build("side-effects", obs)
		if len(p.Groups()) == 0 {
			b.Fatal("empty profile")
		}
	}
}

// ------------------------------------------------------------------- E6

// BenchmarkE6_ShardScaling times corpus ingest at several shard counts
// (§2 Storage).
func BenchmarkE6_ShardScaling(b *testing.B) {
	g := cord19.NewGenerator(6)
	docs := make([]jsondoc.Doc, 800)
	for i, p := range g.Corpus(len(docs)) {
		docs[i] = p.Doc()
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := docstore.Open(docstore.WithShards(shards))
				coll := store.Collection("pubs")
				for _, d := range docs {
					nd := d.Clone()
					delete(nd, "_id")
					if _, err := coll.Insert(nd); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ------------------------------------------------------------------- E7

// BenchmarkE7_VocabSweep times SVM training as the §3.2 feature space
// grows.
func BenchmarkE7_VocabSweep(b *testing.B) {
	g := cord19.NewGenerator(7)
	var samples []classifier.SVMSample
	var texts []string
	for _, lt := range g.LabeledTables(30, 0.5) {
		samples = append(samples, classifier.SVMSamplesFromTable(lt.Rows, lt.Meta)...)
		for _, row := range lt.Rows {
			texts = append(texts, row...)
		}
	}
	for i := 0; len(texts) < 16000; i++ {
		texts = append(texts, fmt.Sprintf("synthterm%d", i))
	}
	for _, size := range []int{250, 1000, 4000} {
		vocab := features.BuildVocabulary(texts, size)
		b.Run(fmt.Sprintf("vocab-%d", vocab.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := classifier.NewSVMModel(vocab, svm.DefaultConfig())
				if err := m.Train(samples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------------- E8

// BenchmarkE8_KGFusion times the §4.2 fusion battery (term matches,
// embedding fallbacks, queueing).
func BenchmarkE8_KGFusion(b *testing.B) {
	embed := func(label string) []float64 {
		h := uint32(2166136261)
		for i := 0; i < len(label); i++ {
			h = (h ^ uint32(label[i])) * 16777619
		}
		out := make([]float64, 16)
		for d := range out {
			h = h*1664525 + 1013904223
			out[d] = float64(h%1000)/1000 - 0.5
		}
		return out
	}
	for i := 0; i < b.N; i++ {
		g := kg.SeedCOVID(embed)
		f := kg.NewFuser(g)
		for j := 0; j < 20; j++ {
			f.Fuse(kg.NewSubtree("Vaccines", fmt.Sprintf("Vaccine-%d", j)))
			f.Fuse(kg.NewSubtree(fmt.Sprintf("Novel-%d", j), "Leaf"))
		}
	}
}

// ------------------------------------------------------------------- E9

// BenchmarkE9_TopicClustering times k-means over document embeddings
// (Figure 1 №5).
func BenchmarkE9_TopicClustering(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	points := make([][]float64, 600)
	for i := range points {
		c := i % 8
		points[i] = make([]float64, 32)
		for d := range points[i] {
			points[i][d] = float64(c) + rng.NormFloat64()*0.3
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(points, cluster.DefaultConfig(8)); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------------ E10

// BenchmarkE10_ClusterTraining times one data-parallel training round at
// several worker counts (§3 Hardware).
func BenchmarkE10_ClusterTraining(b *testing.B) {
	const n, dim = 2000, 30
	rng := rand.New(rand.NewSource(10))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for d := range x[i] {
			x[i][d] = rng.NormFloat64()
		}
		if x[i][0] > 0 {
			y[i] = 1
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			shards := mlcluster.ShardIndices(n, workers)
			replicas := make([][]*mlcore.Param, workers)
			models := make([]*mlcore.Dense, workers)
			sigs := make([]*mlcore.SigmoidLayer, workers)
			opts := make([]*mlcore.SGD, workers)
			for w := 0; w < workers; w++ {
				models[w] = mlcore.NewDense(dim, 1, rand.New(rand.NewSource(1)))
				sigs[w] = &mlcore.SigmoidLayer{}
				opts[w] = mlcore.NewSGD(0.5, 0)
				replicas[w] = models[w].Params()
			}
			tr := &mlcluster.Trainer{Workers: workers, Rounds: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := tr.Run(replicas, func(w, _ int) {
					shard := shards[w]
					xb := mlcore.NewMatrix(len(shard), dim)
					yb := mlcore.NewMatrix(len(shard), 1)
					for bi, idx := range shard {
						copy(xb.Row(bi), x[idx])
						yb.Set(bi, 0, y[idx])
					}
					pred := sigs[w].Forward(models[w].Forward(xb, true), true)
					_, grad := mlcore.BCELoss(pred, yb)
					models[w].Backward(sigs[w].Backward(grad))
					opts[w].Step(models[w].Params())
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
