// Command benchrunner regenerates the paper's evaluation artifacts: one
// experiment per table/figure-level claim (see DESIGN.md §4), printing
// paper-claim vs measured tables.
//
// Usage:
//
//	benchrunner               # run everything at full size
//	benchrunner -quick        # reduced sizes (~seconds per experiment)
//	benchrunner -exp e1,e3    # selected experiments
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"covidkg/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size experiments")
	exp := flag.String("exp", "all", "comma-separated experiment ids (e1..e13) or 'all'")
	flag.Parse()

	ids := experiments.IDs()
	if *exp != "all" {
		ids = nil
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(strings.ToLower(id))
			if _, ok := experiments.Registry[id]; !ok {
				log.Fatalf("unknown experiment %q (have %v)", id, experiments.IDs())
			}
			ids = append(ids, id)
		}
	}

	start := time.Now()
	for _, id := range ids {
		t0 := time.Now()
		rep := experiments.Registry[id](*quick)
		fmt.Println(rep.Format())
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("all experiments done in %s\n", time.Since(start).Round(time.Millisecond))
}
