package kgquery

import (
	"context"
	"math"
	"strings"
	"testing"

	"covidkg/internal/kg"
)

// testGraph builds a small fixed hierarchy:
//
//	COVID-19 (seed)
//	├── Vaccines (seed, p1)
//	│   ├── mRNA vaccines (seed, p1 p2)
//	│   │   └── BNT162b2 (fusion, p2)
//	│   └── Vector vaccines (seed)
//	└── Side effects (fusion, p3)
//	    └── Rash (fusion, p3)
func testGraph(t *testing.T) (*kg.Graph, map[string]string) {
	t.Helper()
	g := kg.New("COVID-19", nil)
	ids := map[string]string{"COVID-19": g.RootID()}
	add := func(parent, label, source string, papers ...string) {
		n, err := g.AddNode(ids[parent], label, source, papers...)
		if err != nil {
			t.Fatal(err)
		}
		ids[label] = n.ID
	}
	add("COVID-19", "Vaccines", kg.SourceSeed, "p1")
	add("Vaccines", "mRNA vaccines", kg.SourceSeed, "p1", "p2")
	add("mRNA vaccines", "BNT162b2", kg.SourceFusion, "p2")
	add("Vaccines", "Vector vaccines", kg.SourceSeed)
	add("COVID-19", "Side effects", kg.SourceFusion, "p3")
	add("Side effects", "Rash", kg.SourceFusion, "p3")
	return g, ids
}

func run(t *testing.T, g *kg.Graph, src string) *Result {
	t.Helper()
	q, err := Parse(src, nil)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	snap := g.Snapshot()
	res, err := Compile(q, snap).Execute(context.Background(), snap, Options{Limit: MaxLimit})
	if err != nil {
		t.Fatalf("execute %q: %v", src, err)
	}
	return res
}

func pathLabels(p Path) []string {
	out := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		out[i] = n.Label
	}
	return out
}

func hasPath(res *Result, labels ...string) bool {
	for _, p := range res.Paths {
		got := pathLabels(p)
		if len(got) != len(labels) {
			continue
		}
		same := true
		for i := range got {
			if got[i] != labels[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

func TestExecuteSingleHopDown(t *testing.T) {
	g, _ := testGraph(t)
	res := run(t, g, `(norm="vaccines")->()`)
	if len(res.Paths) != 2 {
		t.Fatalf("paths = %d, want 2: %v", len(res.Paths), res.Paths)
	}
	if !hasPath(res, "Vaccines", "mRNA vaccines") || !hasPath(res, "Vaccines", "Vector vaccines") {
		t.Fatalf("missing expected paths: %v", res.Paths)
	}
}

func TestExecuteVariableHops(t *testing.T) {
	g, _ := testGraph(t)
	res := run(t, g, `(norm="vaccines")-{1,2}->()`)
	if len(res.Paths) != 3 {
		t.Fatalf("paths = %d, want 3", len(res.Paths))
	}
	if !hasPath(res, "Vaccines", "mRNA vaccines", "BNT162b2") {
		t.Fatalf("missing 2-hop path: %v", res.Paths)
	}
}

func TestExecuteExactHopsWithPredicate(t *testing.T) {
	g, _ := testGraph(t)
	res := run(t, g, `(norm="vaccines")-{2}->(source="fusion")`)
	if len(res.Paths) != 1 || !hasPath(res, "Vaccines", "mRNA vaccines", "BNT162b2") {
		t.Fatalf("paths = %v", res.Paths)
	}
}

func TestExecuteUpEdge(t *testing.T) {
	g, _ := testGraph(t)
	res := run(t, g, `(label="Rash")<--(norm="side effects")`)
	if len(res.Paths) != 1 || !hasPath(res, "Rash", "Side effects") {
		t.Fatalf("paths = %v", res.Paths)
	}
}

func TestExecuteAnyDirection(t *testing.T) {
	g, _ := testGraph(t)
	// sibling-to-sibling goes up through the shared parent
	res := run(t, g, `(norm="mrna vaccines")-{2}-(norm="vector vaccines")`)
	if len(res.Paths) != 1 || !hasPath(res, "mRNA vaccines", "Vaccines", "Vector vaccines") {
		t.Fatalf("paths = %v", res.Paths)
	}
}

func TestExecuteAggregates(t *testing.T) {
	g, _ := testGraph(t)
	res := run(t, g, `(norm="vaccines")-{2}->(id~"n")`)
	if len(res.Paths) != 1 {
		t.Fatalf("paths = %v", res.Paths)
	}
	p := res.Paths[0] // Vaccines(seed,p1) → mRNA(seed,p1 p2) → BNT162b2(fusion,p2)
	if got, want := p.Confidence, 0.85; math.Abs(got-want) > 1e-9 {
		t.Fatalf("confidence = %v, want %v", got, want)
	}
	if p.EvidenceCoverage != 1.0 {
		t.Fatalf("coverage = %v, want 1.0", p.EvidenceCoverage)
	}
	if p.Papers != 2 {
		t.Fatalf("papers = %d, want 2", p.Papers)
	}
	if got, want := p.Score, 0.85; math.Abs(got-want) > 1e-9 {
		t.Fatalf("score = %v, want %v", got, want)
	}
}

func TestPlannerPicksIndexedEntry(t *testing.T) {
	g, _ := testGraph(t)
	snap := g.Snapshot()

	q, _ := Parse(`(norm="vaccines")-{1,2}->()`, nil)
	p := Compile(q, snap)
	if p.Entry != EntryNorm || p.Reversed {
		t.Fatalf("plan = entry %v reversed %v, want norm-index forward", p.Entry, p.Reversed)
	}

	// the selective end is on the right: the planner must reverse
	q, _ = Parse(`()-{1,2}->(norm="rash")`, nil)
	p = Compile(q, snap)
	if p.Entry != EntryNorm || !p.Reversed {
		t.Fatalf("plan = entry %v reversed %v, want norm-index reversed", p.Entry, p.Reversed)
	}
	res, err := p.Execute(context.Background(), snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// paths must come back in query order despite reversed execution
	if !hasPath(res, "Side effects", "Rash") || !hasPath(res, "COVID-19", "Side effects", "Rash") {
		t.Fatalf("reversed paths = %v", res.Paths)
	}
	for _, path := range res.Paths {
		if path.Nodes[len(path.Nodes)-1].Label != "Rash" {
			t.Fatalf("path not in query order: %v", pathLabels(path))
		}
	}
}

func TestPlannerIDEntry(t *testing.T) {
	g, ids := testGraph(t)
	snap := g.Snapshot()
	q, _ := Parse(`(id="`+ids["Rash"]+`")<--()`, nil)
	p := Compile(q, snap)
	if p.Entry != EntryID || p.Cost != 1 {
		t.Fatalf("plan = %+v, want id entry, cost 1", p)
	}
	res, err := p.Execute(context.Background(), snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 1 || res.EntryCandidates != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestExecuteLimitTruncates(t *testing.T) {
	g, _ := testGraph(t)
	q, _ := Parse(`()-{1,2}-()`, nil)
	snap := g.Snapshot()
	res, err := Compile(q, snap).Execute(context.Background(), snap, Options{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 2 || !res.Truncated {
		t.Fatalf("paths = %d truncated = %v, want 2/true", len(res.Paths), res.Truncated)
	}
}

// A match set of exactly Limit paths lost nothing: only a further
// distinct path (a repeat of a recorded one does not count) truncates.
func TestExecuteLimitExactIsNotTruncated(t *testing.T) {
	g, _ := testGraph(t)
	snap := g.Snapshot()
	for _, src := range []string{`(norm="vaccines")-{1,2}->()`, `()-{1,2}-()`, `()-{1,2}->()-{1,2}->()`} {
		q, err := Parse(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan := Compile(q, snap)
		all, err := plan.Execute(context.Background(), snap, Options{Limit: MaxLimit})
		if err != nil || all.Truncated || all.Total < 2 {
			t.Fatalf("%s: unlimited run: %+v, %v", src, all, err)
		}
		exact, err := plan.Execute(context.Background(), snap, Options{Limit: all.Total})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Truncated || exact.Total != all.Total || exact.Expansions != all.Expansions {
			t.Fatalf("%s: limit %d = match set: total %d truncated %v expansions %d, want %d/false/%d",
				src, all.Total, exact.Total, exact.Truncated, exact.Expansions, all.Total, all.Expansions)
		}
		short, err := plan.Execute(context.Background(), snap, Options{Limit: all.Total - 1})
		if err != nil {
			t.Fatal(err)
		}
		if !short.Truncated || short.Total != all.Total-1 {
			t.Fatalf("%s: limit %d: total %d truncated %v, want %d/true",
				src, all.Total-1, short.Total, short.Truncated, all.Total-1)
		}
	}
}

func TestExecuteBudgetTruncates(t *testing.T) {
	g, _ := testGraph(t)
	q, _ := Parse(`()-{1,2}-()`, nil)
	snap := g.Snapshot()
	res, err := Compile(q, snap).Execute(context.Background(), snap, Options{MaxExpansions: 5, Limit: MaxLimit})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Expansions > 5 {
		t.Fatalf("truncated = %v expansions = %d", res.Truncated, res.Expansions)
	}
}

func TestExecuteRankingDeterministic(t *testing.T) {
	g, _ := testGraph(t)
	var prev *Result
	for i := 0; i < 3; i++ {
		res := run(t, g, `()-{1,2}-()`)
		if prev != nil {
			if len(prev.Paths) != len(res.Paths) {
				t.Fatalf("run %d: %d paths vs %d", i, len(res.Paths), len(prev.Paths))
			}
			for j := range res.Paths {
				if pathKeyOf(res.Paths[j]) != pathKeyOf(prev.Paths[j]) {
					t.Fatalf("run %d: order diverged at %d", i, j)
				}
			}
		}
		prev = res
	}
	for i := 1; i < len(prev.Paths); i++ {
		if prev.Paths[i].Score > prev.Paths[i-1].Score {
			t.Fatalf("paths not ranked by score at %d", i)
		}
	}
}

func pathKeyOf(p Path) string {
	ids := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		ids[i] = n.ID
	}
	return strings.Join(ids, "\x1f")
}

func TestHypotheses(t *testing.T) {
	g, _ := testGraph(t)
	snap := g.Snapshot()
	res, err := Hypotheses(context.Background(), snap, "BNT162b2", "Rash", 0, MaxLimit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BNT162b2", "mRNA vaccines", "Vaccines", "COVID-19", "Side effects", "Rash"}
	// the only connecting path is 5 hops; the default 4-hop budget
	// cannot reach it
	if len(res.Paths) != 0 {
		t.Fatalf("paths found at default 4-hop budget: %v", res.Paths)
	}
	res, err = Hypotheses(context.Background(), snap, "BNT162b2", "Rash", 5, MaxLimit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasPath(res, want...) {
		t.Fatalf("missing hypothesis path, got %v", res.Paths)
	}

	if _, err := Hypotheses(context.Background(), snap, "nonexistent concept", "Rash", 3, MaxLimit, Options{}); err == nil {
		t.Fatal("unknown concept did not error")
	}
}
