package kg

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchGraph(n int) *Graph {
	g := SeedCOVID(nil)
	f := NewFuser(g)
	for i := 0; i < n; i++ {
		f.Fuse(NewSubtree("Vaccines", fmt.Sprintf("Vaccine-%d", i)))
		f.Fuse(NewSubtree("Symptoms", fmt.Sprintf("Symptom-%d", i)))
	}
	return g
}

func BenchmarkFuseTermMatch(b *testing.B) {
	g := SeedCOVID(nil)
	f := NewFuser(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Fuse(NewSubtree("Vaccines", fmt.Sprintf("V-%d", i)))
	}
}

func BenchmarkGraphSearch(b *testing.B) {
	g := benchGraph(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Search("vaccine-250")) == 0 {
			b.Fatal("miss")
		}
	}
}

func BenchmarkPathToRoot(b *testing.B) {
	g := benchGraph(500)
	hits := g.Search("vaccine-499")
	id := hits[0].Node.ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.PathToRoot(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalJSON(b *testing.B) {
	g := benchGraph(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// servedGraph grows a graph the size of the one covidkg-server builds
// from its 500-publication corpus: 860 nodes, most of them leaves under
// some thirty hubs, ≈ 5.5 K paper references over ≈ 500 publications
// (internal/kgquery's benchmarks walk the same shape).
func servedGraph() *Graph {
	r := rand.New(rand.NewSource(1))
	papers := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("pub-%04d", r.Intn(503))
		}
		return out
	}
	g := SeedCOVID(nil)
	hubs := g.FindByNorm("Vaccines")
	for i := 0; g.Size() < 860; i++ {
		cited := 1 + r.Intn(6)
		hub := len(hubs) < 30 && r.Intn(25) == 0
		if hub {
			cited = 60 + r.Intn(80)
		}
		n, err := g.AddNode(hubs[r.Intn(len(hubs))], fmt.Sprintf("Term %d", i+10), SourceFusion, papers(cited)...)
		if err != nil {
			panic(err)
		}
		if hub {
			hubs = append(hubs, n.ID)
		}
	}
	return g
}

var snapshotSink *Snapshot

// BenchmarkSnapshotBuild is what the first read after a write pays.
func BenchmarkSnapshotBuild(b *testing.B) {
	g := servedGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.gen++ // as any mutation leaves it
		snapshotSink = g.Snapshot()
	}
}
