package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"covidkg/internal/jsondoc"
)

// compileJSON parses a JSON pipeline string and compiles it.
func compileJSON(t *testing.T, src string) *Pipeline {
	t.Helper()
	var stages []any
	if err := json.Unmarshal([]byte(src), &stages); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(stages)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileMatchEquality(t *testing.T) {
	p := compileJSON(t, `[{"$match": {"topic": "t1"}}]`)
	out, err := p.RunContext(context.Background(), docs(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("matched %d", len(out))
	}
}

func TestCompileMatchOperators(t *testing.T) {
	cases := []struct {
		spec string
		want int
	}{
		{`[{"$match": {"i": {"$gte": 5}}}]`, 5},
		{`[{"$match": {"i": {"$gt": 5}}}]`, 4},
		{`[{"$match": {"i": {"$lt": 2}}}]`, 2},
		{`[{"$match": {"i": {"$lte": 2}}}]`, 3},
		{`[{"$match": {"i": {"$gte": 2, "$lt": 5}}}]`, 3},
		{`[{"$match": {"i": {"$ne": 0}}}]`, 9},
		{`[{"$match": {"title": {"$regex": "masks"}}}]`, 10},
		{`[{"$match": {"title": {"$regex": "^paper 3"}}}]`, 1},
		{`[{"$match": {"missing": {"$exists": false}}}]`, 10},
		{`[{"$match": {"topic": {"$exists": true}}}]`, 10},
		{`[{"$match": {"topic": {"$in": ["t0", "t2"]}}}]`, 7},
	}
	for _, c := range cases {
		out, err := compileJSON(t, c.spec).RunContext(context.Background(), docs(10))
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if len(out) != c.want {
			t.Errorf("%s: matched %d, want %d", c.spec, len(out), c.want)
		}
	}
}

func TestCompileFullQuery(t *testing.T) {
	// the shape of the paper's search queries: match → project → sort →
	// skip/limit
	p := compileJSON(t, `[
		{"$match":   {"topic": "t1"}},
		{"$project": {"i": 1, "title": 1, "_id": 0}},
		{"$sort":    {"i": -1}},
		{"$skip":    1},
		{"$limit":   2}
	]`)
	out, err := p.RunContext(context.Background(), docs(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("results = %d", len(out))
	}
	if out[0].Has("_id") || out[0].Has("topic") {
		t.Fatalf("projection leaked: %v", out[0])
	}
	// topic t1 holds i = 1,4,...,28; sorted desc minus first = 25, 22
	if v, _ := out[0].GetNumber("i"); v != 25 {
		t.Fatalf("head = %v", v)
	}
}

func TestCompileGroup(t *testing.T) {
	p := compileJSON(t, `[
		{"$group": {"_id": "$topic", "n": {"$sum": 1}, "total": {"$sum": "$i"},
		            "avg": {"$avg": "$i"}, "ids": {"$push": "$_id"}}},
		{"$sort": {"_id": 1}}
	]`)
	out, err := p.RunContext(context.Background(), docs(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("groups = %d", len(out))
	}
	g := out[0]
	if g.GetString("_id") != "t0" {
		t.Fatalf("key = %v", g["_id"])
	}
	if n, _ := g.GetNumber("n"); n != 3 {
		t.Fatalf("n = %v", n)
	}
	if tot, _ := g.GetNumber("total"); tot != 9 {
		t.Fatalf("total = %v", tot)
	}
	if avg, _ := g.GetNumber("avg"); avg != 3 {
		t.Fatalf("avg = %v", avg)
	}
	if ids := g.GetArray("ids"); len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestCompileUnwindAndCount(t *testing.T) {
	src := SliceSource{
		jsondoc.Doc{"tags": []any{"a", "b"}},
		jsondoc.Doc{"tags": []any{"c"}},
	}
	p := compileJSON(t, `[{"$unwind": "$tags"}, {"$count": "n"}]`)
	out, err := p.RunContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := out[0].GetNumber("n"); n != 3 {
		t.Fatalf("n = %v", n)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		`[{"$warp": 1}]`,
		`[{"$match": {"a": {"$near": 1}}}]`,
		`[{"$match": {"a": {"$regex": "(unclosed"}}}]`,
		`[{"$match": {"a": {"$regex": 5}}}]`,
		`[{"$limit": -1}]`,
		`[{"$limit": "ten"}]`,
		`[{"$skip": -2}]`,
		`[{"$sort": {"a": 2}}]`,
		`[{"$project": {"a": "yes"}}]`,
		`[{"$project": {"a": 0}}]`,
		`[{"$unwind": 5}]`,
		`[{"$count": ""}]`,
		`[{"$group": {"n": {"$sum": 1}}}]`,
		`[{"$group": {"_id": 5}}]`,
		`[{"$group": {"_id": "$t", "n": {"$median": "$x"}}}]`,
		`[{"$group": {"_id": "$t", "n": {"$avg": 1}}}]`,
		`[{"$match": "not an object"}]`,
		`[5]`,
		`[{"$match": {"a": 1}, "$limit": 2}]`,
		`[{"$exists": {"a": true}}]`,
	}
	for _, src := range bad {
		var stages []any
		if err := json.Unmarshal([]byte(src), &stages); err != nil {
			t.Fatalf("test spec invalid json: %s", src)
		}
		if _, err := Compile(stages); err == nil {
			t.Errorf("Compile(%s) should fail", src)
		} else if !errors.Is(err, ErrBadStage) {
			// unknown-stage errors also wrap ErrBadStage
			t.Errorf("Compile(%s): error %v does not wrap ErrBadStage", src, err)
		}
	}
}

func TestCompileMatchArrayEquality(t *testing.T) {
	src := SliceSource{
		jsondoc.Doc{"tags": []any{"x", "y"}},
		jsondoc.Doc{"tags": []any{"z"}},
	}
	out, err := compileJSON(t, `[{"$match": {"tags": "y"}}]`).RunContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("multikey equality matched %d", len(out))
	}
}

func TestCompiledEqualsHandWritten(t *testing.T) {
	src := docs(50)
	compiled := compileJSON(t, `[
		{"$match": {"topic": "t2"}},
		{"$sort": {"i": -1}},
		{"$limit": 3}
	]`)
	hand := New(MatchEq("topic", "t2"), SortByDesc("i"), Limit(3))
	a, err := compiled.RunContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hand.RunContext(context.Background(), docs(50))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("compiled %d vs hand %d", len(a), len(b))
	}
	for i := range a {
		if !jsondoc.Equal(map[string]any(a[i]), map[string]any(b[i])) {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestCompileFuzzNoPanic throws structurally random stage specs at the
// compiler: it must return an error or a pipeline, never panic.
func TestCompileFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	names := []string{"$match", "$project", "$sort", "$limit", "$skip",
		"$unwind", "$count", "$group", "$bogus"}
	values := []any{
		1.0, -1.0, "x", "$field", true, nil,
		map[string]any{"$gt": 1.0}, map[string]any{"$regex": "("},
		[]any{"a", 2.0}, map[string]any{"$sum": 1.0},
	}
	randValue := func() any { return values[rng.Intn(len(values))] }
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(4)
		stages := make([]any, n)
		for i := range stages {
			spec := map[string]any{}
			for k := 0; k < rng.Intn(3); k++ {
				spec["f"+string(rune('a'+rng.Intn(4)))] = randValue()
			}
			stages[i] = map[string]any{names[rng.Intn(len(names))]: any(spec)}
			if rng.Intn(4) == 0 {
				stages[i] = map[string]any{names[rng.Intn(len(names))]: randValue()}
			}
		}
		p, err := Compile(stages)
		if err != nil {
			continue
		}
		// a compiled pipeline must also run without panicking
		if _, err := p.RunContext(context.Background(), docs(5)); err != nil {
			continue
		}
	}
}
