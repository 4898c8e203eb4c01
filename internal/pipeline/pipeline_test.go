package pipeline

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"testing"

	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
)

func docs(n int) SliceSource {
	out := make(SliceSource, n)
	for i := 0; i < n; i++ {
		out[i] = jsondoc.Doc{
			"_id":   fmt.Sprintf("d%03d", i),
			"i":     float64(i),
			"topic": fmt.Sprintf("t%d", i%3),
			"title": fmt.Sprintf("paper %d about masks", i),
		}
	}
	return out
}

func TestMatchEq(t *testing.T) {
	out, err := New(MatchEq("topic", "t1")).RunContext(context.Background(), docs(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("matched %d", len(out))
	}
	for _, d := range out {
		if d.GetString("topic") != "t1" {
			t.Fatalf("wrong doc: %v", d)
		}
	}
}

func TestMatchRegex(t *testing.T) {
	src := SliceSource{
		jsondoc.Doc{"title": "Masks and transmission"},
		jsondoc.Doc{"title": "Vaccines"},
		jsondoc.Doc{"body": 42.0},
	}
	re := regexp.MustCompile(`(?i)\bmasks?\b`)
	out, err := New(MatchRegex("title", re)).RunContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("matched %d", len(out))
	}
}

func TestMatchExists(t *testing.T) {
	src := SliceSource{
		jsondoc.Doc{"abstract": "x"},
		jsondoc.Doc{"title": "y"},
	}
	out, err := New(MatchExists("abstract")).RunContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("matched %d", len(out))
	}
}

func TestProject(t *testing.T) {
	out, err := New(Project("title")).RunContext(context.Background(), docs(2))
	if err != nil {
		t.Fatal(err)
	}
	d := out[0]
	if !d.Has("title") || !d.Has("_id") {
		t.Fatalf("projection missing fields: %v", d)
	}
	if d.Has("topic") || d.Has("i") {
		t.Fatalf("projection kept extra fields: %v", d)
	}
}

func TestProjectExcludeID(t *testing.T) {
	out, err := New(Project("title").ExcludeID()).RunContext(context.Background(), docs(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Has("_id") {
		t.Fatalf("_id kept: %v", out[0])
	}
}

func TestProjectNested(t *testing.T) {
	src := SliceSource{jsondoc.Doc{"a": map[string]any{"b": 1.0, "c": 2.0}}}
	out, err := New(Project("a.b").ExcludeID()).RunContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out[0].GetNumber("a.b"); v != 1 {
		t.Fatalf("nested projection: %v", out[0])
	}
	if out[0].Has("a.c") {
		t.Fatalf("a.c leaked: %v", out[0])
	}
}

func TestProjectEmptyIsError(t *testing.T) {
	if _, err := New(Project()).RunContext(context.Background(), docs(1)); !errors.Is(err, ErrBadStage) {
		t.Fatalf("want ErrBadStage, got %v", err)
	}
}

func TestFunctionStage(t *testing.T) {
	score := Function("score", func(d jsondoc.Doc) (jsondoc.Doc, error) {
		n, _ := d.GetNumber("i")
		if err := d.Set("score", n*2); err != nil {
			return nil, err
		}
		return d, nil
	})
	out, err := New(score).RunContext(context.Background(), docs(3))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out[2].GetNumber("score"); v != 4 {
		t.Fatalf("score = %v", v)
	}
}

func TestFunctionDropsNil(t *testing.T) {
	dropOdd := Function("dropOdd", func(d jsondoc.Doc) (jsondoc.Doc, error) {
		n, _ := d.GetNumber("i")
		if int(n)%2 == 1 {
			return nil, nil
		}
		return d, nil
	})
	out, err := New(dropOdd).RunContext(context.Background(), docs(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("kept %d", len(out))
	}
}

func TestFunctionError(t *testing.T) {
	boom := errors.New("boom")
	fail := Function("fail", func(jsondoc.Doc) (jsondoc.Doc, error) { return nil, boom })
	if _, err := New(fail).RunContext(context.Background(), docs(1)); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestSortAscDesc(t *testing.T) {
	out, err := New(SortByDesc("i"), Limit(3)).RunContext(context.Background(), docs(10))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{9, 8, 7}
	for i, w := range want {
		if v, _ := out[i].GetNumber("i"); v != w {
			t.Fatalf("sorted[%d] = %v, want %v", i, v, w)
		}
	}
	out, _ = New(SortBy("i"), Limit(1)).RunContext(context.Background(), docs(10))
	if v, _ := out[0].GetNumber("i"); v != 0 {
		t.Fatalf("asc head = %v", v)
	}
}

func TestSortMultiKeyStable(t *testing.T) {
	src := SliceSource{
		jsondoc.Doc{"g": "a", "n": 2.0, "tag": "first"},
		jsondoc.Doc{"g": "a", "n": 2.0, "tag": "second"},
		jsondoc.Doc{"g": "b", "n": 1.0},
	}
	out, err := New(Sort(SortKey{Path: "g"}, SortKey{Path: "n", Desc: true})).RunContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].GetString("tag") != "first" || out[1].GetString("tag") != "second" {
		t.Fatal("sort not stable on equal keys")
	}
	if out[2].GetString("g") != "b" {
		t.Fatal("multi-key order wrong")
	}
}

func TestLimitSkipPagination(t *testing.T) {
	// page 2, 10 per page — the paper's pagination shape
	out, err := New(SortBy("i"), Skip(10), Limit(10)).RunContext(context.Background(), docs(35))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("page size = %d", len(out))
	}
	if v, _ := out[0].GetNumber("i"); v != 10 {
		t.Fatalf("page start = %v", v)
	}
	// past-the-end page
	out, _ = New(SortBy("i"), Skip(100), Limit(10)).RunContext(context.Background(), docs(35))
	if len(out) != 0 {
		t.Fatalf("past-end page = %d", len(out))
	}
}

func TestLimitSkipErrors(t *testing.T) {
	if _, err := New(Limit(-1)).RunContext(context.Background(), docs(1)); !errors.Is(err, ErrBadStage) {
		t.Fatal("negative limit")
	}
	if _, err := New(Skip(-1)).RunContext(context.Background(), docs(1)); !errors.Is(err, ErrBadStage) {
		t.Fatal("negative skip")
	}
}

func TestUnwind(t *testing.T) {
	src := SliceSource{
		jsondoc.Doc{"_id": "a", "tags": []any{"x", "y"}},
		jsondoc.Doc{"_id": "b", "tags": []any{"z"}},
		jsondoc.Doc{"_id": "c"}, // no array: dropped
	}
	out, err := New(Unwind("tags")).RunContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("unwound %d", len(out))
	}
	if out[0].GetString("tags") != "x" || out[1].GetString("tags") != "y" {
		t.Fatalf("unwind values: %v", out)
	}
}

func TestGroupBySumCountAvgPush(t *testing.T) {
	out, err := New(
		GroupBy("topic", Sum("total", "i"), CountAcc("n"), Avg("avg", "i"), Push("ids", "_id")),
		SortBy("_id"),
	).RunContext(context.Background(), docs(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("groups = %d", len(out))
	}
	// topic t0 holds i = 0,3,6
	g := out[0]
	if g.GetString("_id") != "t0" {
		t.Fatalf("group key = %v", g["_id"])
	}
	if v, _ := g.GetNumber("total"); v != 9 {
		t.Errorf("sum = %v", v)
	}
	if v, _ := g.GetNumber("n"); v != 3 {
		t.Errorf("count = %v", v)
	}
	if v, _ := g.GetNumber("avg"); v != 3 {
		t.Errorf("avg = %v", v)
	}
	if ids := g.GetArray("ids"); len(ids) != 3 {
		t.Errorf("push = %v", ids)
	}
}

func TestGroupByFunc(t *testing.T) {
	out, err := New(GroupByFunc(func(d jsondoc.Doc) any {
		n, _ := d.GetNumber("i")
		return int(n) % 2
	}, CountAcc("n"))).RunContext(context.Background(), docs(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("groups = %d", len(out))
	}
}

func TestAvgEmptyGroupIsNull(t *testing.T) {
	src := SliceSource{jsondoc.Doc{"g": "a"}}
	out, err := New(GroupBy("g", Avg("avg", "missing"))).RunContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := out[0].Get("avg"); !ok || v != nil {
		t.Fatalf("avg of nothing = %v", v)
	}
}

func TestCount(t *testing.T) {
	out, err := New(MatchEq("topic", "t0"), Count("n")).RunContext(context.Background(), docs(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("count docs = %d", len(out))
	}
	if v, _ := out[0].GetNumber("n"); v != 3 {
		t.Fatalf("n = %v", v)
	}
	if _, err := New(Count("")).RunContext(context.Background(), docs(1)); !errors.Is(err, ErrBadStage) {
		t.Fatal("empty count field")
	}
}

func TestAddFields(t *testing.T) {
	out, err := New(AddFields(map[string]func(jsondoc.Doc) any{
		"double": func(d jsondoc.Doc) any {
			n, _ := d.GetNumber("i")
			return n * 2
		},
	})).RunContext(context.Background(), docs(3))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out[2].GetNumber("double"); v != 4 {
		t.Fatalf("double = %v", v)
	}
}

func TestPipelineOverDocstore(t *testing.T) {
	s := docstore.Open(docstore.WithShards(3))
	c := s.Collection("pubs")
	for i := 0; i < 30; i++ {
		if _, err := c.Insert(jsondoc.Doc{"i": i, "topic": fmt.Sprintf("t%d", i%5)}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := New(
		MatchEq("topic", "t2"),
		Project("i"),
		SortByDesc("i"),
		Limit(2),
	).RunContext(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d", len(out))
	}
	if v, _ := out[0].GetNumber("i"); v != 27 {
		t.Fatalf("head = %v", v)
	}
}

func TestStreamingMatchPrefix(t *testing.T) {
	// Both orders must give identical results; the match-first pipeline
	// streams and the match-late pipeline buffers (E3 measures the perf
	// difference).
	src := docs(50)
	heavy := Function("annotate", func(d jsondoc.Doc) (jsondoc.Doc, error) {
		return d, d.Set("x", 1)
	})
	first, err := New(MatchEq("topic", "t1"), heavy).RunContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	late, err := New(heavy, MatchEq("topic", "t1")).RunContext(context.Background(), docs(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(late) {
		t.Fatalf("order changed result: %d vs %d", len(first), len(late))
	}
}

func TestExplain(t *testing.T) {
	p := New(MatchEq("a", 1), Project("a"), SortBy("a"), Limit(1))
	got := p.Explain()
	want := "$match(eq a) -> $project -> $sort -> $limit"
	if got != want {
		t.Fatalf("Explain = %q", got)
	}
}

func TestAppendChaining(t *testing.T) {
	p := New(MatchEq("topic", "t0")).Append(Limit(1))
	out, err := p.RunContext(context.Background(), docs(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d", len(out))
	}
}
