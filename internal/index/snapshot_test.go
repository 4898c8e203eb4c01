package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// copySnaps deep-copies the data a reader is promised to own.
func copySnaps(snaps []TermSnapshot) []TermSnapshot {
	out := make([]TermSnapshot, len(snaps))
	for i, s := range snaps {
		out[i] = TermSnapshot{
			Term:   s.Term,
			Docs:   append([]string(nil), s.Docs...),
			MaxWTF: s.MaxWTF,
			MaxRaw: s.MaxRaw,
		}
	}
	return out
}

// TestTermSnapshotsImmutableUnderChurn is the snapshot-isolation
// property at the index level: a TermSnapshot handed to a reader must
// never change after the fact, no matter how many adds, removals,
// seals, merges, and compactions the writer performs meanwhile. Readers
// hold their snapshots across writer progress and re-compare against a
// copy taken at acquisition; the race detector additionally flags any
// unsynchronized mutation of the shared slices.
func TestTermSnapshotsImmutableUnderChurn(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(8)
	docs := segTestDocs(60, 5)
	for _, d := range docs {
		for f, text := range d.fields {
			ix.Add(d.id, f, text)
		}
	}
	probe := append([]string(nil), ix.Terms()...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(13))
		extra := segTestDocs(4000, 77)
		for i := 60; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := extra[i%len(extra)]
			for f, text := range d.fields {
				ix.Add(d.id+"x", f, text)
			}
			switch rng.Intn(20) {
			case 0:
				ix.Remove(docs[rng.Intn(len(docs))].id)
			case 1:
				ix.Seal()
			case 2:
				ix.Compact()
			}
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		snaps := ix.TermSnapshots(probe)
		frozen := copySnaps(snaps)
		for _, s := range snaps {
			if !sort.StringsAreSorted(s.Docs) {
				t.Fatalf("snapshot %q docs not sorted: %v", s.Term, s.Docs)
			}
		}
		// Let the writer seal/merge under us, then re-check the very
		// slices we were handed.
		time.Sleep(2 * time.Millisecond)
		if !reflect.DeepEqual(snaps, frozen) {
			t.Fatal("snapshot mutated after return while writer progressed")
		}
	}
	close(stop)
	wg.Wait()
	ix.Wait()
}

// cursorStream walks a fresh fork of c and deep-copies everything it
// yields.
func cursorStream(c *Cursor, names int) (docs []string, runs [][][]Run, static []float64) {
	c = c.Fork()
	for doc, ok := c.Next(); ok; doc, ok = c.Next() {
		perName := make([][]Run, names)
		for i := range perName {
			for _, r := range c.Runs(i) {
				perName[i] = append(perName[i], Run{r.Field, append([]int(nil), r.Pos...)})
			}
		}
		docs, runs, static = append(docs, doc), append(runs, perName), append(static, c.Static())
	}
	return docs, runs, static
}

// TestCursorIsolatedFromConcurrentWriter: a cursor reads without the
// index lock, so what it yields must not move — and the race detector
// must stay quiet — while a writer appends to the very documents it is
// positioned on, rewrites their static scores, removes them, and seals
// and merges the parts under it.
func TestCursorIsolatedFromConcurrentWriter(t *testing.T) {
	// reAdd appends to sealed ids too, which makes postings span parts
	// (the cursor then merges runs and resolves static scores up front);
	// without it documents stay whole and the cursor reads the parts'
	// own arrays.
	for _, reAdd := range []bool{false, true} {
		t.Run(fmt.Sprintf("reAdd=%v", reAdd), func(t *testing.T) { cursorUnderWriter(t, reAdd) })
	}
}

func cursorUnderWriter(t *testing.T, reAdd bool) {
	ix := New()
	ix.SetSealThreshold(8)
	docs := segTestDocs(40, 5)
	for _, d := range docs {
		for f, text := range d.fields {
			ix.Add(d.id, f, text)
		}
		ix.AddDoc(d.id, Analyze(nil), 0.25)
	}
	probe := ix.Terms()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(29))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := docs[rng.Intn(len(docs))]
			switch rng.Intn(12) {
			case 0:
				ix.Remove(d.id)
			case 1:
				ix.Seal()
			case 2:
				ix.Compact()
			case 3, 4:
				ix.AddDoc(d.id, Analyze(nil), float64(i))
			default:
				id := d.id // the same words again: existing runs grow in place
				if !reAdd {
					id = fmt.Sprintf("new-%06d", i)
				}
				for f, text := range d.fields {
					ix.Add(id, f, text)
				}
			}
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		c := ix.Cursor(probe)
		d0, r0, s0 := cursorStream(c, len(probe))
		if !sort.StringsAreSorted(d0) {
			t.Fatalf("cursor stream not ascending: %v", d0)
		}
		time.Sleep(2 * time.Millisecond) // let the writer move the index under the snapshot
		d1, r1, s1 := cursorStream(c, len(probe))
		if !reflect.DeepEqual(d0, d1) || !reflect.DeepEqual(r0, r1) || !reflect.DeepEqual(s0, s1) {
			t.Fatal("a cursor's stream changed while the writer progressed")
		}
	}
	close(stop)
	wg.Wait()
	ix.Wait()
}
