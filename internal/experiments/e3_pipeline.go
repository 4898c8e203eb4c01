package experiments

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"time"

	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/pipeline"
)

// heavyStage is an expensive per-document $function standing in for the
// paper's custom JavaScript ranking functions.
func heavyStage() pipeline.Stage {
	return pipeline.Function("rank", func(d jsondoc.Doc) (jsondoc.Doc, error) {
		// simulate feature computation over the document text
		text := d.GetString("title") + " " + d.GetString("abstract") + " " + d.GetString("body_text")
		score := 0.0
		for i := 0; i < len(text); i++ {
			score += float64(text[i]&0x1f) * 0.001
		}
		if err := d.Set("score", score); err != nil {
			return nil, err
		}
		return d, nil
	})
}

// E3 reproduces the §2.1 claim that putting $match first "significantly
// increases performance": the same query runs with the selective $match
// before vs after the expensive ranking stage.
func E3(quick bool) *Report {
	r := &Report{
		ID:    "E3",
		Title: "Aggregation pipeline stage ordering ($match-first)",
		PaperClaim: "\"it was mindful to use the $match stage first to minimize the " +
			"amount of data being passed through all the latter stages, thus " +
			"significantly increasing performance\" (§2.1)",
		Header: []string{"pipeline", "docs into heavy stage", "results", "time"},
	}
	nDocs := 8000
	if quick {
		nDocs = 1500
	}
	ctx := context.Background()
	coll := docstore.Open().Collection("pubs")
	g := cord19.NewGenerator(11)
	for _, p := range g.Corpus(nDocs) {
		if _, err := coll.Insert(p.Doc()); err != nil {
			panic(err)
		}
	}

	re := regexp.MustCompile(`(?i)\bmask`)
	match := pipeline.MatchRegex("title", re)

	// warm the store's scan path so neither variant pays first-touch
	// allocation costs
	if err := coll.ScanContext(ctx, func(jsondoc.Doc) bool { return true }); err != nil {
		panic(err)
	}

	// timeOnce runs p once from a collected heap, so neither variant
	// pays for garbage the other left behind.
	timeOnce := func(p *pipeline.Pipeline) (int, time.Duration) {
		runtime.GC()
		start := time.Now()
		out, err := p.RunContext(ctx, coll)
		if err != nil {
			panic(err)
		}
		return len(out), time.Since(start)
	}

	// counting how many docs the heavy stage sees
	var firstHeavyIn, lateHeavyIn int
	countingHeavy := func(counter *int) pipeline.Stage {
		inner := heavyStage()
		return pipeline.Function("count+rank", func(d jsondoc.Doc) (jsondoc.Doc, error) {
			*counter++
			out, err := inner.Run(ctx, []jsondoc.Doc{d})
			if err != nil || len(out) == 0 {
				return nil, err
			}
			return out[0], nil
		})
	}

	first := pipeline.New(
		match, countingHeavy(&firstHeavyIn),
		pipeline.SortByDesc("score"), pipeline.Limit(10),
	)
	late := pipeline.New(
		countingHeavy(&lateHeavyIn), pipeline.MatchRegex("title", re),
		pipeline.SortByDesc("score"), pipeline.Limit(10),
	)
	// the two variants alternate, so a burst of load on the host slows
	// both; each keeps its best time
	const reps = 5
	var nFirst, nLate int
	var tFirst, tLate time.Duration
	for rep := 0; rep < reps; rep++ {
		n, t := timeOnce(first)
		if rep == 0 || t < tFirst {
			nFirst, tFirst = n, t
		}
		n, t = timeOnce(late)
		if rep == 0 || t < tLate {
			nLate, tLate = n, t
		}
	}
	// the counters accumulated over the timing repetitions
	firstHeavyIn /= reps
	lateHeavyIn /= reps

	r.AddRow("$match first", fmt.Sprintf("%d", firstHeavyIn), fmt.Sprintf("%d", nFirst), tFirst.Round(time.Microsecond).String())
	r.AddRow("$match last", fmt.Sprintf("%d", lateHeavyIn), fmt.Sprintf("%d", nLate), tLate.Round(time.Microsecond).String())
	if nFirst != nLate {
		r.AddNote("shape DIVERGES: result sets differ (%d vs %d)", nFirst, nLate)
	} else if tFirst < tLate {
		r.AddNote("shape holds: match-first is %.1fx faster and the heavy stage "+
			"processed %.0fx fewer documents",
			float64(tLate)/float64(tFirst), float64(lateHeavyIn)/float64(max(1, firstHeavyIn)))
	} else {
		r.AddNote("shape DIVERGES: match-first not faster (%.2v vs %.2v)", tFirst, tLate)
	}
	return r
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
