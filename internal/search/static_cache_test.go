package search

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
)

// TestNoPageCachedWithoutStatic: a document's postings and its static
// (recency) score become visible together. Indexing used to write a
// document's postings, then its static score in a second critical
// section that bumped no term's write generation, so a query landing in
// between cached a page scoring the new document at recency 0 and kept
// serving it until one of the page's terms was written again. Readers
// race AddDocuments; after every batch, every page the engine serves —
// cached or not — must equal the same query on a fresh engine over the
// same corpus. Every document holds every query term, so each write
// stales every page computed before it, and the corpus stays within one
// page, so a missing score shows in the page. Run it with -race
// -count=10.
func TestNoPageCachedWithoutStatic(t *testing.T) {
	dates := []string{"2023-06-01", "2019-03-01", "2022-06-01", "2020-06-01", "2021-06-01"}
	queries := []string{"zebra", "quokka sightings"}
	for round := 0; round < 24; round++ {
		mk := func(i int) jsondoc.Doc {
			d := pub(fmt.Sprintf("r%d-%02d", round, i), "zebra quokka", "zebra sightings", "")
			d["publish_date"] = dates[(i+round)%len(dates)]
			return d
		}
		coll := docstore.Open().Collection("pubs")
		var docs []jsondoc.Doc
		for i := 0; i < 3; i++ {
			docs = append(docs, mk(i))
			if _, err := coll.Insert(docs[i]); err != nil {
				t.Fatal(err)
			}
		}
		e := NewEngine(coll)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ { // several, so one is often waiting on the index lock
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, q := range queries {
						if _, err := e.SearchAllContext(context.Background(), q, 1); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
		}

		for i := 3; i < PerPage; i++ {
			d := mk(i)
			for _, a := range e.AddDocuments([]jsondoc.Doc{d}) {
				if a.Err != nil {
					t.Fatal(a.Err)
				}
			}
			docs = append(docs, d)
			fresh := docstore.Open().Collection("pubs")
			for _, d := range docs {
				if _, err := fresh.Insert(d); err != nil {
					t.Fatal(err)
				}
			}
			fe := NewEngine(fresh)
			for _, q := range queries {
				got, err := e.SearchAllContext(context.Background(), q, 1)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fe.SearchAllContext(context.Background(), q, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, after adding %s: q=%q served\n%+v\nwhile a fresh engine answers\n%+v",
						round, d.GetString("_id"), q, got.Results, want.Results)
				}
			}
		}
		close(stop)
		wg.Wait()
	}
}
