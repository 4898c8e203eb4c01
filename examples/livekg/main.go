// Livekg demonstrates the paper's central pitch: a knowledge graph that
// stays current as new literature arrives. A system is built over an
// initial corpus, then "newly published" papers stream in through
// Refresh — only their tables are classified and fused, the graph grows
// incrementally, and the corpus bias audit is re-run after each wave to
// keep the training data interrogated for bias.
package main

import (
	"context"
	"fmt"
	"log"

	"covidkg"
)

func main() {
	cfg := covidkg.DefaultConfig()
	cfg.TrainTables = 60
	sys := covidkg.New(cfg)

	// Day 0: the initial vetted corpus.
	if err := sys.Ingest(covidkg.GenerateCorpus(150, 2020)); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Train(); err != nil {
		log.Fatal(err)
	}
	st, err := sys.BuildGraph()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 0: %d publications, KG %d nodes (%d tables enriched)\n",
		sys.PublicationCount(), sys.GraphSize(), st.Tables)

	// Days 1..3: literature waves arrive (№12 in Figure 1). Each wave is
	// ingested, indexed, and incrementally fused — no full rebuild.
	for day := 1; day <= 3; day++ {
		wave := covidkg.GenerateCorpus(40, int64(3000+day))
		st, err := sys.Refresh(wave)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d: +%d publications → %d new tables enriched, "+
			"%d subtrees (%d fused, %d queued), KG %d nodes\n",
			day, len(wave), st.Tables, st.Subtrees, st.Fused, st.Queued,
			sys.GraphSize())
	}

	// The freshest arrivals are immediately searchable.
	page, err := sys.SearchAllContext(context.Background(), "vaccine", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsearch \"vaccine\": %d hits across all %d publications\n",
		page.Total, sys.PublicationCount())

	// Interrogate the accumulated corpus for bias (the title claim).
	fmt.Println()
	rep, err := sys.AuditBias(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Format())

	// The review queue holds what the expert still needs to see.
	fmt.Printf("\npending expert reviews: %d\n", len(sys.PendingReviews()))
}
