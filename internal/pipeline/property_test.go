package pipeline

import (
	"context"
	"math/rand"
	"testing"

	"covidkg/internal/jsondoc"
)

// TestSortIsOrderedPermutation checks that $sort outputs exactly the
// input multiset in non-decreasing key order, across random inputs.
func TestSortIsOrderedPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		src := make(SliceSource, n)
		counts := map[float64]int{}
		for i := range src {
			v := float64(rng.Intn(10))
			src[i] = jsondoc.Doc{"k": v}
			counts[v]++
		}
		out, err := New(SortBy("k")).RunContext(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Fatalf("trial %d: lost docs: %d != %d", trial, len(out), n)
		}
		prev := -1.0
		for _, d := range out {
			v, _ := d.GetNumber("k")
			if v < prev {
				t.Fatalf("trial %d: not sorted", trial)
			}
			prev = v
			counts[v]--
		}
		for v, c := range counts {
			if c != 0 {
				t.Fatalf("trial %d: multiset changed at %v (%d)", trial, v, c)
			}
		}
	}
}

// TestMatchIsSubset checks $match output ⊆ input and that every kept doc
// satisfies the predicate, across random predicates.
func TestMatchIsSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		src := make(SliceSource, n)
		for i := range src {
			src[i] = jsondoc.Doc{"v": float64(rng.Intn(5))}
		}
		cut := float64(rng.Intn(5))
		out, err := New(Match(func(d jsondoc.Doc) bool {
			v, _ := d.GetNumber("v")
			return v >= cut
		})).RunContext(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) > n {
			t.Fatal("match grew the stream")
		}
		for _, d := range out {
			if v, _ := d.GetNumber("v"); v < cut {
				t.Fatalf("kept non-matching doc %v", v)
			}
		}
	}
}

// TestSkipLimitPartition checks that paging with skip/limit covers the
// stream exactly once, for random page sizes.
func TestSkipLimitPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(95)
		pageSize := 1 + rng.Intn(20)
		src := make(SliceSource, n)
		for i := range src {
			src[i] = jsondoc.Doc{"i": float64(i)}
		}
		seen := map[float64]bool{}
		for page := 0; ; page++ {
			out, err := New(SortBy("i"), Skip(page*pageSize), Limit(pageSize)).RunContext(context.Background(), append(SliceSource(nil), src...))
			if err != nil {
				t.Fatal(err)
			}
			if len(out) == 0 {
				break
			}
			for _, d := range out {
				v, _ := d.GetNumber("i")
				if seen[v] {
					t.Fatalf("doc %v on two pages", v)
				}
				seen[v] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("pages covered %d of %d docs", len(seen), n)
		}
	}
}

// TestGroupCountsSumToInput checks Σ group counts == input length.
func TestGroupCountsSumToInput(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(80)
		src := make(SliceSource, n)
		for i := range src {
			src[i] = jsondoc.Doc{"g": float64(rng.Intn(6))}
		}
		out, err := New(GroupBy("g", CountAcc("n"))).RunContext(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, d := range out {
			c, _ := d.GetNumber("n")
			total += c
		}
		if int(total) != n {
			t.Fatalf("counts sum %v != %d", total, n)
		}
	}
}
