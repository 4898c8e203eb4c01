// Kgfusion walks through §4.2 of the paper interactively: the
// expert-seeded knowledge graph is enriched by fusing extracted
// subtrees — term-matched roots fuse unsupervised, the unseen "NovoVac"
// vaccine resolves through embedding matching, the multi-layer
// "Children side-effects" subtree waits for expert review, and the
// expert's decision is learned so the next occurrence is automatic.
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
	cfg.TrainTables = 60
	sys := covidkg.New(cfg)
	if err := sys.Ingest(covidkg.GenerateCorpus(200, 13)); err != nil {
		log.Fatal(err)
	}
	// Train so the graph has an embedding-driven matcher for unseen terms.
	if _, err := sys.Train(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("seed graph: %d nodes\n\n", sys.GraphSize())

	report := func(desc string, res covidkg.FusionResult) {
		fmt.Printf("fuse %-48s → %-6s via %-14s conf %.2f\n",
			desc, res.Action, res.Method, res.Confidence)
	}

	// 1. The paper's first walkthrough: Vaccine → NovoVac. The root
	// "Vaccine" term-matches the seed node "Vaccines", so the new leaf
	// fuses unsupervised.
	sub := &covidkg.Subtree{Label: "Vaccine",
		Children: []*covidkg.Subtree{{Label: "NovoVac"}},
		Papers:   []string{"cord-000123"}}
	report("Vaccine → NovoVac", sys.Fuse(sub))

	// 2. The second walkthrough: Side-effects → Children side-effects →
	// Rash. Multi-layer, so it must be evaluated by the human expert
	// even though the root matches.
	deep := &covidkg.Subtree{Label: "Side effects",
		Children: []*covidkg.Subtree{{
			Label:    "Children side-effects",
			Children: []*covidkg.Subtree{{Label: "Rash"}},
		}},
		Papers: []string{"cord-000456"}}
	res := sys.Fuse(deep)
	report("Side effects → Children side-effects → Rash", res)

	// 3. The expert (№14 in Figure 1) reviews the queue.
	fmt.Printf("\nreview queue: %d pending\n", len(sys.PendingReviews()))
	for _, item := range sys.PendingReviews() {
		fmt.Printf("  #%d %q suggested target=%s (method %s, conf %.2f)\n",
			item.ID, item.Sub.Label, item.SuggestedID, item.Method, item.Confidence)
	}
	target := res.TargetID
	if target == "" {
		target = sys.GraphRoot().ID
	}
	if err := sys.ApproveReview(res.ReviewID, target); err != nil {
		log.Fatal(err)
	}
	fmt.Println("expert approved → subtree applied, correction learned")

	// 4. Learning: the same root label now fuses without supervision.
	again := &covidkg.Subtree{Label: "Side effects",
		Children: []*covidkg.Subtree{{Label: "Dizziness"}}}
	fmt.Println()
	report("Side effects → Dizziness (after learning)", sys.Fuse(again))

	// 5. Both additions are reachable with full provenance paths.
	fmt.Println("\npaths:")
	for _, q := range []string{"NovoVac", "Rash", "Dizziness"} {
		hits, err := sys.GraphSearchContext(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		for _, h := range hits {
			var labels []string
			for _, n := range h.Path {
				labels = append(labels, n.Label)
			}
			fmt.Printf("  %s", strings.Join(labels, " → "))
			if len(h.Node.Papers) > 0 {
				fmt.Printf("   [from %s]", strings.Join(h.Node.Papers, ", "))
			}
			fmt.Println()
		}
	}
	fmt.Printf("\nfinal graph: %d nodes\n", sys.GraphSize())
}
