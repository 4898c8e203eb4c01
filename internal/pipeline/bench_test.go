package pipeline

import (
	"context"
	"fmt"
	"testing"

	"covidkg/internal/jsondoc"
)

func benchDocs(n int) SliceSource {
	out := make(SliceSource, n)
	for i := 0; i < n; i++ {
		out[i] = jsondoc.Doc{
			"_id": fmt.Sprintf("d%06d", i), "i": float64(i),
			"topic": fmt.Sprintf("t%d", i%7),
			"title": "study of masks and vaccines",
		}
	}
	return out
}

func BenchmarkMatchProjectSortLimit(b *testing.B) {
	src := benchDocs(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(MatchEq("topic", "t3"), Project("i", "title"), SortByDesc("i"), Limit(10))
		if _, err := p.RunContext(context.Background(), src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupBy(b *testing.B) {
	src := benchDocs(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(GroupBy("topic", Sum("total", "i"), CountAcc("n")))
		out, err := p.RunContext(context.Background(), src)
		if err != nil || len(out) != 7 {
			b.Fatalf("groups=%d err=%v", len(out), err)
		}
	}
}

func BenchmarkUnwind(b *testing.B) {
	src := make(SliceSource, 1000)
	for i := range src {
		src[i] = jsondoc.Doc{"tags": []any{"a", "b", "c"}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(Unwind("tags"))
		if out, err := p.RunContext(context.Background(), src); err != nil || len(out) != 3000 {
			b.Fatal(err)
		}
	}
}
