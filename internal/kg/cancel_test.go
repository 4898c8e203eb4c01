package kg

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestSearchContextCancelled(t *testing.T) {
	g := New("COVID-19", nil)
	// a 300-deep chain: label normalization collapses numeric suffixes,
	// so siblings would collide as duplicates
	parent := g.RootID()
	for i := 0; i < 300; i++ {
		n, err := g.AddNode(parent, fmt.Sprintf("vaccine variant %d", i), SourceExpert)
		if err != nil {
			t.Fatal(err)
		}
		parent = n.ID
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hits, err := g.SearchContext(ctx, "vaccine")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if hits != nil {
		t.Fatalf("cancelled search returned %d hits, want none", len(hits))
	}

	// the same query under a live context succeeds and finds everything
	hits, err = g.SearchContext(context.Background(), "vaccine")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 300 {
		t.Fatalf("live search found %d hits, want 300", len(hits))
	}
}

func TestSearchMatchesSearchContext(t *testing.T) {
	g := SeedCOVID(nil)
	plain := search(t, g, "vaccines")
	// a cancellable context that stays live must not change the hits
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := g.SearchContext(live, "vaccines")
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(withCtx) {
		t.Fatalf("background and live contexts diverge: %d vs %d", len(plain), len(withCtx))
	}
}
