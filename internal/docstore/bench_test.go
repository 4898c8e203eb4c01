package docstore

import (
	"context"
	"fmt"
	"testing"

	"covidkg/internal/jsondoc"
)

func benchDoc(i int) jsondoc.Doc {
	return jsondoc.Doc{
		"title":    fmt.Sprintf("publication %d about masks and vaccines", i),
		"abstract": "We analyze mask mandates and vaccination outcomes across cohorts.",
		"year":     2020 + i%3,
		"authors":  []any{"A. Author", "B. Author"},
	}
}

func BenchmarkInsert(b *testing.B) {
	s := Open(WithShards(4))
	c := s.Collection("pubs")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert(benchDoc(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s := Open(WithShards(4))
	c := s.Collection("pubs")
	ids := make([]string, 1000)
	for i := range ids {
		id, err := c.Insert(benchDoc(i))
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan1000(b *testing.B) {
	s := Open(WithShards(4))
	c := s.Collection("pubs")
	for i := 0; i < 1000; i++ {
		c.Insert(benchDoc(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := c.ScanContext(context.Background(), func(jsondoc.Doc) bool { n++; return true })
		if err != nil || n != 1000 {
			b.Fatal("bad scan")
		}
	}
}
