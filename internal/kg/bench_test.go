package kg

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
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
		if len(search(b, g, "vaccine-250")) == 0 {
			b.Fatal("miss")
		}
	}
}

func BenchmarkPathToRoot(b *testing.B) {
	g := benchGraph(500)
	hits := search(b, g, "vaccine-499")
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
func servedGraph() *Graph { return grownGraph(860) }

// grownGraph grows servedGraph's shape to size nodes.
func grownGraph(size int) *Graph {
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
	for i := 0; g.Size() < size; i++ {
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

// hashEmbed is a deterministic stand-in for the served embedder, which
// is trained inside core: each lower-cased token hashes to a fixed
// pseudo-random 32-float vector and a label embeds to their mean, nil
// without tokens.
func hashEmbed(label string) []float64 {
	toks := strings.Fields(strings.ToLower(label))
	if len(toks) == 0 {
		return nil
	}
	v := make([]float64, 32)
	for _, t := range toks {
		h := fnv.New64a()
		h.Write([]byte(t))
		x := h.Sum64()
		for i := range v {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[i] += float64(int64(x>>11))/(1<<52) - 1
		}
	}
	for i := range v {
		v[i] /= float64(len(toks))
	}
	return v
}

// unmatchedFuser returns a fuser over a graph of size nodes and a
// 5-leaf subtree whose root matches no label and no embedding above the
// threshold, so every Fuse runs both embedding scans and queues it.
func unmatchedFuser(size int) (*Fuser, *Subtree) {
	g := grownGraph(size)
	g.SetEmbedder(hashEmbed)
	return NewFuser(g), NewSubtree("Unseen category", "alpha", "beta", "gamma", "delta", "epsilon")
}

// BenchmarkFuseUnmatched is the ingest path's fusion of a subtree whose
// root has no term match, over the served graph and one four times its
// size: one embedding scan for the root and one per leaf. Node label
// vectors are warm after the first Fuse; the two sizes should differ by
// the flops of the larger scan only.
func BenchmarkFuseUnmatched(b *testing.B) {
	for _, size := range []int{860, 4 * 860} {
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			f, sub := unmatchedFuser(size)
			if res := f.Fuse(sub); res.Method != MethodLeafEmbed {
				b.Fatalf("warm-up fusion = %+v, want a leaf-embedding suggestion", res)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Fuse(sub)
			}
		})
	}
}

// TestFuseAllocationCeiling: once label vectors are warm, an unmatched
// Fuse allocates the same at 860 and 3,440 nodes — nothing per node
// visited, only the root's and leaves' own embeddings and the review
// item.
func TestFuseAllocationCeiling(t *testing.T) {
	var allocs []float64
	for _, size := range []int{860, 4 * 860} {
		f, sub := unmatchedFuser(size)
		if res := f.Fuse(sub); res.Method != MethodLeafEmbed {
			t.Fatalf("warm-up fusion = %+v, want a leaf-embedding suggestion", res)
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() { f.Fuse(sub) }))
	}
	t.Logf("allocs per unmatched Fuse: %v at 860 nodes, %v at 3,440", allocs[0], allocs[1])
	if d := allocs[1] - allocs[0]; d > 4 || d < -4 {
		t.Fatalf("allocs per Fuse grow with the graph: %v at 860 nodes, %v at 3,440", allocs[0], allocs[1])
	}
}
