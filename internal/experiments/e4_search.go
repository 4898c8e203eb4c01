package experiments

import (
	"context"
	"fmt"
	"time"

	"covidkg/internal/cord19"
	"covidkg/internal/search"
	"covidkg/internal/shardnet"
)

// E4 reproduces Figures 2 and 4 functionally: the three search engines
// answer the paper's demo queries ("masks", "ventilators") with ranked,
// highlighted, paginated results; per-engine latency is measured.
func E4(quick bool) *Report {
	r := &Report{
		ID:    "E4",
		Title: "Three advanced search engines (Figures 2 & 4)",
		PaperClaim: "search over title/abstract/caption, over all fields, and over " +
			"tables; quoted exact match + stemming; 10 results per page; " +
			"highlighted snippets (§2.1)",
		Header: []string{"engine", "query", "hits", "pages", "top-hit snippet fields", "latency"},
	}
	nPubs := 2500
	if quick {
		nPubs = 400
	}
	coll := shardnet.Local(shardnet.Config{Collection: "pubs"}, 4)
	defer coll.Close()
	g := cord19.NewGenerator(21)
	pubs := g.Corpus(nPubs)
	for i := 0; i < 3; i++ {
		pubs = append(pubs, g.SideEffectPaper([]string{"Pfizer-BioNTech", "Moderna"}))
	}
	for _, p := range pubs {
		if _, err := coll.Insert(p.Doc()); err != nil {
			panic(err)
		}
	}
	eng := search.NewEngine(coll)
	// no query cache: every run below ranks and materializes, so the
	// latency column times the engines, not a cache hit
	eng.SetCacheLimits(0, 0)
	ctx := context.Background()

	type probe struct {
		name string
		run  func() (search.Page, error)
		q    string
	}
	probes := []probe{
		{"all-fields", func() (search.Page, error) { return eng.SearchAllContext(ctx, "masks", 1) }, "masks"},
		{"all-fields", func() (search.Page, error) { return eng.SearchAllContext(ctx, `"side effect"`, 1) }, `"side effect"`},
		{"tables", func() (search.Page, error) { return eng.SearchTablesContext(ctx, "ventilators", 1) }, "ventilators"},
		{"tables", func() (search.Page, error) { return eng.SearchTablesContext(ctx, "vaccine", 1) }, "vaccine"},
		{"fields", func() (search.Page, error) {
			return eng.SearchFieldsContext(ctx, search.FieldQuery{Title: "vaccination", Abstract: "dose"}, 1)
		}, "title:vaccination abstract:dose"},
	}
	for _, p := range probes {
		// warm-up run absorbs post-ingest GC and first-touch costs; the
		// reported latency is the best of three steady-state runs
		if _, err := p.run(); err != nil {
			panic(err)
		}
		var page search.Page
		var lat time.Duration
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			pg, err := p.run()
			if err != nil {
				panic(err)
			}
			if d := time.Since(start); rep == 0 || d < lat {
				page, lat = pg, d
			}
		}
		fields := "-"
		if len(page.Results) > 0 {
			set := map[string]bool{}
			for _, sn := range page.Results[0].Snippets {
				set[sn.Field] = true
			}
			fields = ""
			for f := range set {
				if fields != "" {
					fields += ","
				}
				fields += f
			}
		}
		r.AddRow(p.name, p.q, fmt.Sprintf("%d", page.Total),
			fmt.Sprintf("%d", page.NumPages), fields,
			lat.Round(time.Microsecond).String())
		if len(page.Results) > search.PerPage {
			r.AddNote("shape DIVERGES: page larger than %d", search.PerPage)
		}
		for i := 1; i < len(page.Results); i++ {
			if page.Results[i].Score > page.Results[i-1].Score {
				r.AddNote("shape DIVERGES: %s results not rank-ordered", p.name)
				break
			}
		}
	}
	r.AddNote("corpus: %d publications, %d shards; all engines paginate at %d/page",
		len(pubs), coll.NumShards(), search.PerPage)
	return r
}
