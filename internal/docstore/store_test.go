package docstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"covidkg/internal/durable"
	"covidkg/internal/faultfs"
	"covidkg/internal/jsondoc"
)

func TestInsertGet(t *testing.T) {
	s := Open()
	c := s.Collection("pubs")
	id, err := c.Insert(jsondoc.Doc{"title": "Masks", "year": 2021})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id == "" {
		t.Fatal("empty id")
	}
	got, err := c.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.GetString("title") != "Masks" {
		t.Errorf("title = %q", got.GetString("title"))
	}
	if y, _ := got.GetNumber("year"); y != 2021 {
		t.Errorf("year = %v (ints must normalize to float64)", y)
	}
}

func TestInsertExplicitAndDuplicateID(t *testing.T) {
	s := Open()
	c := s.Collection("pubs")
	if _, err := c.Insert(jsondoc.Doc{IDField: "p1", "x": 1}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Insert(jsondoc.Doc{IDField: "p1", "x": 2})
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("want ErrDuplicateID, got %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	s := Open()
	_, err := s.Collection("x").Get("nope")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := Open()
	c := s.Collection("pubs")
	id, _ := c.Insert(jsondoc.Doc{"nested": map[string]any{"k": "v"}})
	got, _ := c.Get(id)
	if err := got.Set("nested.k", "mutated"); err != nil {
		t.Fatal(err)
	}
	again, _ := c.Get(id)
	if again.GetString("nested.k") != "v" {
		t.Fatal("Get returned a shared document")
	}
}

func TestInsertDetachesCaller(t *testing.T) {
	s := Open()
	c := s.Collection("pubs")
	src := jsondoc.Doc{"nested": map[string]any{"k": "v"}}
	id, _ := c.Insert(src)
	src["nested"].(map[string]any)["k"] = "mutated"
	got, _ := c.Get(id)
	if got.GetString("nested.k") != "v" {
		t.Fatal("Insert shared the caller's document")
	}
}

func TestDelete(t *testing.T) {
	s := Open()
	c := s.Collection("pubs")
	id, _ := c.Insert(jsondoc.Doc{"a": 1})
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatal("document survived delete")
	}
	if err := c.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if c.Count() != 0 {
		t.Fatalf("count = %d", c.Count())
	}
}

func TestScanDeterministicAndStoppable(t *testing.T) {
	s := Open(WithShards(3))
	c := s.Collection("pubs")
	for i := 0; i < 20; i++ {
		if _, err := c.Insert(jsondoc.Doc{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var order1, order2 []string
	if err := c.ScanContext(ctx, func(d jsondoc.Doc) bool {
		order1 = append(order1, d[IDField].(string))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.ScanContext(ctx, func(d jsondoc.Doc) bool {
		order2 = append(order2, d[IDField].(string))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(order1) != 20 {
		t.Fatalf("scan saw %d docs", len(order1))
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatal("scan order not deterministic")
		}
	}
	n := 0
	if err := c.ScanContext(ctx, func(jsondoc.Doc) bool { n++; return n < 5 }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop at %d", n)
	}
}

func TestConcurrentInsertAndRead(t *testing.T) {
	s := Open(WithShards(4))
	c := s.Collection("pubs")
	var wg sync.WaitGroup
	const writers, perWriter = 8, 100
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if _, err := c.Insert(jsondoc.Doc{IDField: id, "w": w}); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				if _, err := c.Get(id); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(w)
	}
	// concurrent scans
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.ScanContext(context.Background(), func(jsondoc.Doc) bool { return true }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if c.Count() != writers*perWriter {
		t.Fatalf("count = %d", c.Count())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := Open(WithShards(3)).Collection("pubs")
	for i := 0; i < 25; i++ {
		c.Insert(jsondoc.Doc{"i": i, "s": fmt.Sprintf("doc %d", i)})
	}
	if err := save(c, dir, faultfs.OS{}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	c2 := Open(WithShards(5)).Collection("pubs")
	if _, err := load(c2, dir); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := c2.Count(); got != 25 {
		t.Fatalf("pubs count = %d", got)
	}
	for _, id := range c.IDs() {
		a, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c2.Get(id)
		if err != nil {
			t.Fatalf("doc %s missing after load: %v", id, err)
		}
		if !jsondoc.Equal(map[string]any(a), map[string]any(b)) {
			t.Fatalf("doc %s differs: %v vs %v", id, a, b)
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := load(Open().Collection("pubs"), "/nonexistent/dir"); !errors.Is(err, durable.ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}
