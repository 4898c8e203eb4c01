package covidkg_test

import (
	"context"
	"fmt"

	"covidkg"
)

// ExampleSystem shows the end-to-end path: ingest a corpus, train the
// models, build the knowledge graph, and search.
func ExampleSystem() {
	cfg := covidkg.DefaultConfig()
	cfg.TrainTables = 40
	cfg.W2V.Epochs = 2
	sys := covidkg.New(cfg)

	if err := sys.Ingest(covidkg.GenerateCorpus(50, 7)); err != nil {
		panic(err)
	}
	if _, err := sys.Train(); err != nil {
		panic(err)
	}
	if _, err := sys.BuildGraph(); err != nil {
		panic(err)
	}

	fmt.Println("publications:", sys.PublicationCount())
	fmt.Println("root:", sys.GraphRoot().Label)
	// Output:
	// publications: 50
	// root: COVID-19
}

// ExampleSystem_Fuse demonstrates the §4.2 fusion rules: a term-matched
// depth-2 subtree fuses unsupervised, a multi-layer subtree queues for
// the expert.
func ExampleSystem_Fuse() {
	sys := covidkg.New(covidkg.DefaultConfig())

	flat := covidkg.NewSubtree("Vaccines", "ExampleVax")
	fmt.Println(sys.Fuse(flat).Action)

	deep := &covidkg.Subtree{Label: "Side effects", Children: []*covidkg.Subtree{
		{Label: "Rare side effects", Children: []*covidkg.Subtree{{Label: "Myocarditis"}}},
	}}
	fmt.Println(sys.Fuse(deep).Action)
	// Output:
	// fused
	// queued
}

// ExampleSystem_GraphSearchContext shows KG search with path
// highlighting.
func ExampleSystem_GraphSearchContext() {
	sys := covidkg.New(covidkg.DefaultConfig())
	sys.Fuse(covidkg.NewSubtree("Vaccines", "DemoVax"))
	hits, err := sys.GraphSearchContext(context.Background(), "DemoVax")
	if err != nil {
		panic(err)
	}
	for _, hit := range hits {
		for i, n := range hit.Path {
			if i > 0 {
				fmt.Print(" -> ")
			}
			fmt.Print(n.Label)
		}
		fmt.Println()
	}
	// Output:
	// COVID-19 -> Vaccines -> DemoVax
}
