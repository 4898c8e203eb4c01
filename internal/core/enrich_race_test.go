package core

import (
	"fmt"
	"sync"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/jsondoc"
)

// TestConcurrentIngestEnrich: concurrent POST /api/v1/publications
// handlers each run IngestDocs then EnrichNew, appending to and draining
// the shared pending queue from every handler goroutine (the unguarded
// map this queue replaced drew a -race report within 4 batches, at
// worst "fatal error: concurrent map read and map write"). Twelve
// batches race here; under -race any unguarded access fails the run.
// Each queued publication is taken by exactly one drain, so no
// publication's tables are enriched twice: the per-call table counts
// must add up to the tables ingested.
func TestConcurrentIngestEnrich(t *testing.T) {
	s := smallSystem(t, 20)
	if _, err := s.BuildKG(); err != nil {
		t.Fatal(err)
	}

	const batches, perBatch = 12, 4
	g := cord19.NewGenerator(99)
	wantTables := 0
	docs := make([][]jsondoc.Doc, batches)
	for b := range docs {
		for i, p := range g.Corpus(perBatch) {
			d := p.Doc()
			d["_id"] = fmt.Sprintf("race-%d-%d", b, i)
			wantTables += len(d.GetArray("tables"))
			docs[b] = append(docs[b], d)
		}
	}

	var wg sync.WaitGroup
	stats := make([]BuildStats, batches)
	for b := range docs {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			if rep := s.IngestDocs(docs[b]); rep.Failed > 0 {
				t.Errorf("batch %d: %v", b, rep.Err())
			}
			stats[b] = s.EnrichNew()
		}(b)
	}
	wg.Wait()

	gotTables := 0
	for _, st := range stats {
		gotTables += st.Tables
	}
	// a batch's documents may be drained by another batch's EnrichNew,
	// but every table is enriched exactly once overall
	if gotTables != wantTables {
		t.Fatalf("concurrent EnrichNew calls enriched %d tables in total, want each of the %d ingested tables once", gotTables, wantTables)
	}
	if st := s.EnrichNew(); st.Tables != 0 {
		t.Fatalf("a further EnrichNew found %d unprocessed tables", st.Tables)
	}
}
