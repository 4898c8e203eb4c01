package docstore

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"covidkg/internal/jsondoc"
)

func seedDocs(t *testing.T, c *Collection, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id, err := c.Insert(jsondoc.Doc{"n": i, "body": fmt.Sprintf("doc number %d", i)})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestConcurrentUpdateScan pins the shard-locking invariant: concurrent
// Update, Insert, Get, and ScanContext must be race-free and every scan
// must observe internally consistent documents (run under -race).
func TestConcurrentUpdateScan(t *testing.T) {
	s := Open(WithShards(4))
	c := s.Collection("pubs")
	ids := seedDocs(t, c, 200)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(i*7+w*13)%len(ids)]
				err := c.Update(id, func(d jsondoc.Doc) error {
					return d.Set("touched", w*1000+i)
				})
				if err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Insert(jsondoc.Doc{"extra": i}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 20; i++ {
		n := 0
		err := c.ScanContext(ctx, func(d jsondoc.Doc) bool {
			if d.GetString(IDField) == "" {
				t.Error("scanned doc without _id")
				return false
			}
			n++
			return true
		})
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if n < len(ids) {
			t.Fatalf("scan %d saw %d docs, want ≥ %d", i, n, len(ids))
		}
		for k := 0; k < 50; k++ {
			if _, err := c.Get(ids[k%len(ids)]); err != nil {
				t.Fatalf("get during scan churn: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
