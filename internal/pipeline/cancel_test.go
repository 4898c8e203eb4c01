package pipeline

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"
	"testing"

	"covidkg/internal/jsondoc"
)

// countdownCtx reports itself cancelled after a fixed number of Err
// calls — a deterministic stand-in for "the deadline expired mid-scan"
// that does not depend on wall-clock timing. Err is atomic so parallel
// stages may poll it concurrently.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.n.Store(calls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func cancelDocs(n int) []jsondoc.Doc {
	docs := make([]jsondoc.Doc, n)
	for i := range docs {
		docs[i] = jsondoc.Doc{"_id": strconv.Itoa(i), "n": float64(i)}
	}
	return docs
}

func TestRunContextCancelledBeforeScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(Match(func(jsondoc.Doc) bool { return true }))
	out, err := p.RunContext(ctx, SliceSource(cancelDocs(500)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("cancelled run returned partial results: %d docs", len(out))
	}
}

func TestRunContextCancelsMidScan(t *testing.T) {
	// the scan checks every CancelCheckInterval docs; with 3 checks
	// granted, cancellation must land mid-scan, well before all docs
	ctx := newCountdownCtx(3)
	matched := 0
	p := New(Match(func(jsondoc.Doc) bool { matched++; return true }))
	_, err := p.RunContext(ctx, SliceSource(cancelDocs(100*CancelCheckInterval)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// the 4th check fires at doc 4*CancelCheckInterval; everything after
	// must have been skipped
	if max := 5 * CancelCheckInterval; matched > max {
		t.Fatalf("matched %d docs after cancellation, want <= %d", matched, max)
	}
}

func TestRunContextStageCancellation(t *testing.T) {
	// a context that survives the scan (10 checks) and the between-stage
	// check, then dies inside the $function stage: the stage must stop
	// within one check interval instead of processing all 640 docs
	calls := 0
	fn := Function("slow", func(d jsondoc.Doc) (jsondoc.Doc, error) {
		calls++
		return d, nil
	})
	docs := cancelDocs(10 * CancelCheckInterval)
	ctx := newCountdownCtx(12)
	_, err := New(fn).RunContext(ctx, SliceSource(docs))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls == 0 || calls >= len(docs) {
		t.Fatalf("function ran %d times, want mid-stage stop in (0, %d)", calls, len(docs))
	}
}

func TestRunContextLiveMatchesRun(t *testing.T) {
	// a cancellable context that stays live must not change the result
	docs := cancelDocs(3 * CancelCheckInterval)
	build := func() *Pipeline {
		return New(
			Match(func(d jsondoc.Doc) bool { n, _ := d.GetNumber("n"); return int(n)%2 == 0 }),
			SortByDesc("n"),
			Limit(10),
		)
	}
	plain, err := build().RunContext(context.Background(), SliceSource(docs))
	if err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := build().RunContext(live, SliceSource(docs))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(withCtx) {
		t.Fatalf("background and live contexts diverge: %d vs %d docs", len(plain), len(withCtx))
	}
	for i := range plain {
		if plain[i]["_id"] != withCtx[i]["_id"] {
			t.Fatalf("doc %d: %v vs %v", i, plain[i]["_id"], withCtx[i]["_id"])
		}
	}
}

// failingSource stops after one document with a fixed error, as a
// docstore scan does when it reaches a dark shard.
type failingSource struct{ err error }

func (s failingSource) ScanContext(_ context.Context, fn func(jsondoc.Doc) bool) error {
	fn(jsondoc.Doc{"_id": "0"})
	return s.err
}

func TestRunContextReturnsSourceError(t *testing.T) {
	boom := errors.New("shard dark")
	out, err := New(Count("n")).RunContext(context.Background(), failingSource{boom})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the source's error", err)
	}
	if out != nil {
		t.Fatalf("failed scan returned partial results: %v", out)
	}
}
