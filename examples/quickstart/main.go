// Quickstart: the complete COVIDKG pipeline in one file — generate a
// CORD-19-style corpus, ingest it into the sharded store, train the
// models, build the knowledge graph, and query everything through the
// public API.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"covidkg"
)

func main() {
	cfg := covidkg.DefaultConfig()
	cfg.TrainTables = 80
	sys := covidkg.New(cfg)

	// 1. Corpus: the offline substitute for the CORD-19 download.
	pubs := covidkg.GenerateCorpus(300, 42)
	if err := sys.Ingest(pubs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d publications\n", sys.PublicationCount())

	// 2. Train embeddings + classifiers.
	stats, err := sys.Train()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: vocab=%d, svm train-set %s\n",
		stats.VocabSize, stats.SVMMetrics)

	// 3. Build the knowledge graph from classified table metadata.
	bs, err := sys.BuildGraph()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("knowledge graph: %d nodes (%d subtrees: %d fused, %d queued for review)\n\n",
		sys.GraphSize(), bs.Subtrees, bs.Fused, bs.Queued)

	// 4. Search the corpus.
	page, err := sys.SearchAllContext(context.Background(), "vaccine side effects", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search \"vaccine side effects\": %d hits, top 3:\n", page.Total)
	for i, r := range page.Results {
		if i == 3 {
			break
		}
		fmt.Printf("  %d. [%.2f] %s\n", i+1, r.Score, r.Title)
	}

	// 5. Browse the knowledge graph with path highlighting.
	fmt.Println("\nKG search \"vaccines\":")
	hits, err := sys.GraphSearchContext(context.Background(), "vaccines")
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		var labels []string
		for _, n := range h.Path {
			labels = append(labels, n.Label)
		}
		fmt.Printf("  %s (%d linked papers)\n", strings.Join(labels, " → "), len(h.Node.Papers))
	}

	// 6. Released models (№11/13 in the paper's architecture).
	models, err := sys.ExportModels()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nreleased pre-trained models:")
	for _, m := range models {
		fmt.Printf("  %-18s %6d bytes\n", m.Name, len(m.Data))
	}
}
