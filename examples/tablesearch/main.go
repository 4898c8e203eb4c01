// Tablesearch demonstrates the three advanced search engines of §2.1 —
// the scenarios behind Figures 2 and 4: searching all publication fields
// for "masks", searching tables for "ventilators", quoted exact-match
// phrases, field-restricted search, and pagination.
package main

import (
	"context"
	"fmt"
	"log"

	"covidkg"
)

func main() {
	cfg := covidkg.DefaultConfig()
	cfg.TrainTables = 40
	sys := covidkg.New(cfg)
	if err := sys.Ingest(covidkg.GenerateCorpus(600, 7)); err != nil {
		log.Fatal(err)
	}

	show := func(title string, page covidkg.Page, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("— %s —\n%d results, page %d of %d\n",
			title, page.Total, page.PageNum, page.NumPages)
		for i, r := range page.Results {
			if i == 2 {
				fmt.Println("  ...")
				break
			}
			fmt.Printf("  [%.2f] %s\n", r.Score, r.Title)
			for _, sn := range r.Snippets {
				fmt.Printf("    %-15s %s\n", sn.Field+":", sn.HighlightMarked())
			}
		}
		fmt.Println()
	}

	// Figure 2: search over all publication fields for "masks"
	page, err := sys.SearchAllContext(context.Background(), "masks", 1)
	show(`all fields: "masks" (Figure 2)`, page, err)

	// Figure 4: table search for "ventilators" — matches captions and
	// table data, highlighted
	page, err = sys.SearchTablesContext(context.Background(), "ventilators", 1)
	show(`tables: "ventilators" (Figure 4)`, page, err)

	// quoted phrases are exact matches (§2.1)
	page, err = sys.SearchAllContext(context.Background(), `"viral load"`, 1)
	show(`exact phrase: "viral load"`, page, err)

	// §2.1.1: inclusive field search — each queried field must match
	page, err = sys.SearchFieldsContext(context.Background(), covidkg.FieldQuery{
		Title:    "vaccination",
		Abstract: "dose",
	}, 1)
	show("fields: title=vaccination AND abstract=dose", page, err)

	// pagination: page 2 of a broad query
	page, err = sys.SearchAllContext(context.Background(), "patients", 2)
	show(`all fields: "patients", page 2`, page, err)
}
