// Command kgctl is the COVIDKG command-line tool: generate corpora,
// ingest them, train models, build the knowledge graph, and query the
// system — the whole Figure 1 pipeline from a terminal.
//
// Subcommands:
//
//	kgctl gen       -n 500 -seed 42 -out DIR     generate, train, build the KG, checkpoint
//	kgctl search    -data DIR -engine all -q "masks" [-page 1]
//	kgctl kg        -data DIR [-q vaccines] [-tree]  query the checkpointed KG
//	kgctl profile   -data DIR                    build the side-effect meta-profile
//	kgctl topics    -data DIR -k 8               topical clustering
//	kgctl stats     -data DIR                    store statistics
//	kgctl bias      -data DIR                    interrogate the corpus for bias
//	kgctl aggregate -data DIR -q '[{"$group": ...}]'  run a JSON pipeline
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"covidkg/internal/cord19"
	"covidkg/internal/core"
	"covidkg/internal/kg"
	"covidkg/internal/pipeline"
	"covidkg/internal/search"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	ctx := context.Background()
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "search":
		cmdSearch(ctx, os.Args[2:])
	case "kg":
		cmdKG(ctx, os.Args[2:])
	case "profile":
		cmdProfile(ctx, os.Args[2:])
	case "topics":
		cmdTopics(ctx, os.Args[2:])
	case "stats":
		cmdStats(ctx, os.Args[2:])
	case "bias":
		cmdBias(ctx, os.Args[2:])
	case "aggregate":
		cmdAggregate(ctx, os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: kgctl <gen|search|kg|profile|topics|stats|bias|aggregate> [flags]")
	os.Exit(2)
}

// cmdAggregate runs a MongoDB-dialect JSON pipeline over the
// publications, the one collection a checkpoint holds:
//
//	kgctl aggregate -data DIR -q '[{"$group": {"_id": "$topic", "n": {"$sum": 1}}}]'
func cmdAggregate(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("aggregate", flag.ExitOnError)
	data := fs.String("data", "covidkg-data", "store directory")
	q := fs.String("q", "", "JSON pipeline (array of $-stages)")
	limit := fs.Int("limit", 20, "max results printed")
	fs.Parse(args)
	if *q == "" {
		log.Fatal("aggregate: -q is required")
	}
	var stages []any
	if err := json.Unmarshal([]byte(*q), &stages); err != nil {
		log.Fatalf("aggregate: parse pipeline: %v", err)
	}
	p, err := pipeline.Compile(stages)
	if err != nil {
		log.Fatalf("aggregate: %v", err)
	}
	p.Append(pipeline.Limit(*limit))

	sys := loadSystem(*data, false)
	out, err := p.RunContext(ctx, sys.Pubs)
	if err != nil {
		log.Fatalf("aggregate: %v", err)
	}
	for _, d := range out {
		fmt.Println(d.String())
	}
	fmt.Fprintf(os.Stderr, "(%d results)\n", len(out))
}

func cmdBias(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("bias", flag.ExitOnError)
	data := fs.String("data", "covidkg-data", "store directory")
	fs.Parse(args)
	sys := loadSystem(*data, false)
	rep, err := sys.AuditBias(ctx)
	if err != nil {
		log.Fatalf("bias: %v", err)
	}
	fmt.Print(rep.Format())
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	n := fs.Int("n", 500, "publications to generate")
	seed := fs.Int64("seed", 42, "generator seed")
	out := fs.String("out", "covidkg-data", "output store directory")
	fs.Parse(args)

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	sys := core.NewSystem(cfg)
	if _, err := sys.Build(core.BuildSpec{Pubs: *n, Seed: *seed}); err != nil {
		log.Fatalf("build: %v", err)
	}
	if err := sys.Checkpoint(*out); err != nil {
		log.Fatalf("checkpoint: %v", err)
	}
	log.Printf("wrote %d publications and a %d-node knowledge graph to %s", sys.Pubs.Count(), sys.Graph.Size(), *out)
}

// loadSystem restores the checkpoint in dataDir and, when asked,
// retrains the models.
func loadSystem(dataDir string, train bool) *core.System {
	sys := core.NewSystem(core.DefaultConfig())
	if _, err := sys.Restore(dataDir); err != nil {
		log.Fatalf("load %s: %v (run `kgctl gen` first)", dataDir, err)
	}
	if train {
		if _, err := sys.TrainModels(); err != nil {
			log.Fatalf("train: %v", err)
		}
	}
	return sys
}

func cmdSearch(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	data := fs.String("data", "covidkg-data", "store directory")
	engine := fs.String("engine", "all", "all|tables|fields")
	q := fs.String("q", "", "query (quote phrases for exact match)")
	title := fs.String("title", "", "title query (fields engine)")
	abstract := fs.String("abstract", "", "abstract query (fields engine)")
	caption := fs.String("caption", "", "caption query (fields engine)")
	page := fs.Int("page", 1, "result page (10 per page)")
	fs.Parse(args)

	sys := loadSystem(*data, false)
	var (
		pg  search.Page
		err error
	)
	switch *engine {
	case "all":
		pg, err = sys.Search.SearchAllContext(ctx, *q, *page)
	case "tables":
		pg, err = sys.Search.SearchTablesContext(ctx, *q, *page)
	case "fields":
		pg, err = sys.Search.SearchFieldsContext(ctx, search.FieldQuery{
			Title: *title, Abstract: *abstract, Caption: *caption,
		}, *page)
	default:
		log.Fatalf("unknown engine %q", *engine)
	}
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	fmt.Printf("%d results (page %d/%d)\n\n", pg.Total, pg.PageNum, pg.NumPages)
	for i, r := range pg.Results {
		fmt.Printf("%2d. [%.3f] %s\n    %s — %s\n",
			(pg.PageNum-1)*pg.PerPage+i+1, r.Score, r.Title,
			strings.Join(r.Authors, ", "), r.Journal)
		for _, sn := range r.Snippets {
			fmt.Printf("      %-14s %s\n", sn.Field+":", sn.HighlightMarked())
		}
		fmt.Println()
	}
}

func cmdKG(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("kg", flag.ExitOnError)
	data := fs.String("data", "covidkg-data", "store directory")
	q := fs.String("q", "", "optional KG query")
	dump := fs.Bool("tree", false, "print the full tree")
	fs.Parse(args)

	sys := loadSystem(*data, false)
	fmt.Printf("knowledge graph: %d nodes\n\n", sys.Graph.Size())
	queryAndDump(ctx, sys, *q, *dump)
}

func queryAndDump(ctx context.Context, sys *core.System, q string, dump bool) {
	if q != "" {
		hits, err := sys.Graph.SearchContext(ctx, q)
		if err != nil {
			log.Fatalf("kg search: %v", err)
		}
		fmt.Printf("%d hits for %q\n", len(hits), q)
		for _, h := range hits {
			var labels []string
			for _, p := range h.Path {
				labels = append(labels, p.Label)
			}
			fmt.Printf("  %s  (%d papers)\n", strings.Join(labels, " → "), len(h.Node.Papers))
		}
	}
	if dump {
		sys.Graph.Walk(func(n kg.Node, depth int) bool {
			fmt.Printf("%s%s", strings.Repeat("  ", depth), n.Label)
			if len(n.Papers) > 0 {
				fmt.Printf("  [%d papers]", len(n.Papers))
			}
			fmt.Println()
			return true
		})
	}
}

func cmdProfile(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	data := fs.String("data", "covidkg-data", "store directory")
	fs.Parse(args)
	sys := loadSystem(*data, true)
	p, err := sys.BuildMetaProfile(ctx, "COVID-19 Vaccine Side-effects")
	if err != nil {
		log.Fatalf("profile: %v", err)
	}
	fmt.Print(p.Render())
}

func cmdTopics(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("topics", flag.ExitOnError)
	data := fs.String("data", "covidkg-data", "store directory")
	k := fs.Int("k", len(cord19.TopicNames()), "number of clusters")
	fs.Parse(args)
	sys := loadSystem(*data, true)
	res, ids, truths, err := sys.TopicClusters(ctx, *k)
	if err != nil {
		log.Fatalf("topics: %v", err)
	}
	counts := make(map[int]map[string]int)
	for i, c := range res.Assign {
		if counts[c] == nil {
			counts[c] = map[string]int{}
		}
		counts[c][truths[i]]++
	}
	fmt.Printf("clustered %d publications into %d topics (%d iterations)\n",
		len(ids), *k, res.Iterations)
	for c := 0; c < *k; c++ {
		fmt.Printf("  cluster %d:", c)
		for topic, n := range counts[c] {
			fmt.Printf(" %s=%d", topic, n)
		}
		fmt.Println()
	}
}

func cmdStats(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	data := fs.String("data", "covidkg-data", "store directory")
	fs.Parse(args)
	sys := loadSystem(*data, false)
	fmt.Printf("documents:   %d\n", sys.Pubs.Count())
	for _, c := range sys.ShardConnHealth(ctx) {
		fmt.Printf("shard %d:     %d docs\n", c.Shard, c.Docs)
	}
}
