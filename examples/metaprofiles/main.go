// Metaprofiles reproduces the Figure 6 scenario: vaccine side-effect
// tables from three different papers are parsed, their observations
// extracted, and fused into one multi-layered meta-profile grouped by
// vaccine, dosage, and source paper — "much easier to comprehend than
// reading these 3 papers".
package main

import (
	"context"
	"fmt"
	"log"

	"covidkg"
)

func main() {
	cfg := covidkg.DefaultConfig()
	cfg.TrainTables = 50
	sys := covidkg.New(cfg)

	// three side-effect papers (the Figure 6 sources) plus background
	// corpus noise the extractor must ignore
	vaccines := []string{"Pfizer-BioNTech", "Moderna", "AstraZeneca"}
	pubs := covidkg.GenerateSideEffectPapers(3, 99, vaccines)
	pubs = append(pubs, covidkg.GenerateCorpus(80, 100)...)
	if err := sys.Ingest(pubs); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Train(); err != nil {
		log.Fatal(err)
	}

	profile, err := sys.MetaProfile(context.Background(), "COVID-19 Vaccine Side-effects")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(profile.Render())

	// drill into one cell across papers — the cross-source comparison a
	// reader would otherwise assemble by hand
	fmt.Println("\nper-paper detail for Pfizer-BioNTech / dose 2:")
	for _, e := range profile.Entries("Pfizer-BioNTech", "dose 2") {
		fmt.Printf("  %-24s %5.1f%%  (%s)\n", e.Attribute, e.Value, e.Source)
	}
}
