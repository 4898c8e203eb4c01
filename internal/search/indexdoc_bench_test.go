package search

import (
	"testing"
	"time"

	"covidkg/internal/cord19"
	"covidkg/internal/index"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// BenchmarkIndexDoc indexes one CORD-19-shaped document per op the way
// AddDocuments does: index.Analyze (in an insert worker in production)
// then Index.AddDoc (the ordered loop, under the index lock). apply-ns/op
// is the AddDoc share. 256 generated documents cycle through a fresh
// memtable each time round, so the index never seals.
func BenchmarkIndexDoc(b *testing.B) {
	g := cord19.NewGenerator(7)
	docs := make([]jsondoc.Doc, 256)
	for i := range docs {
		docs[i] = g.Publication().Doc()
	}
	var e *Engine
	fresh := func() {
		e = &Engine{idx: index.New(), met: metrics.NewRegistry()}
		e.idx.SetFieldWeights(fieldWeights)
		e.idx.SetSealThreshold(0)
	}
	fresh()
	var apply time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(docs) == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		d := docs[i%len(docs)]
		a := index.Analyze(docTexts(d))
		start := time.Now()
		e.idx.AddDoc(d.GetString("_id"), a, recencyOf(d))
		apply += time.Since(start)
	}
	b.ReportMetric(float64(apply.Nanoseconds())/float64(b.N), "apply-ns/op")
}
