package index

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func TestTermSnapshotsSortedAndComplete(t *testing.T) {
	ix := New()
	// out-of-order ids dirty the posting list; the snapshot must rebuild
	ix.Add("b2", "title", "vaccine efficacy")
	ix.Add("a1", "title", "vaccine dose")
	ix.Add("c3", "body", "vaccine vaccine trials")

	snaps := ix.TermSnapshots([]string{"vaccin", "nosuchterm"})
	if got, want := snaps[0].Docs, []string{"a1", "b2", "c3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("posting list = %v, want %v", got, want)
	}
	if snaps[0].MaxRaw != 2 {
		t.Fatalf("MaxRaw = %d, want 2 (c3 has two occurrences)", snaps[0].MaxRaw)
	}
	if len(snaps[1].Docs) != 0 {
		t.Fatalf("unknown term returned docs: %v", snaps[1].Docs)
	}

	// the snapshot must agree with Lookup for every term in the index
	for _, term := range ix.Terms() {
		snap := ix.TermSnapshots([]string{term})[0]
		want := lookupDocs(ix, term)
		if !reflect.DeepEqual(snap.Docs, want) {
			t.Fatalf("term %q: snapshot %v != lookup %v", term, snap.Docs, want)
		}
	}
}

// lookupDocs derives the sorted distinct doc ids of a term from the
// Lookup API, the oracle the snapshots are checked against.
func lookupDocs(ix *Index, term string) []string {
	set := map[string]bool{}
	for _, p := range ix.Lookup(term) {
		set[p.DocID] = true
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func TestTermSnapshotsAfterChurn(t *testing.T) {
	ix := New()
	for i := 0; i < 40; i++ {
		ix.Add(fmt.Sprintf("d%02d", i), "body", "fever outbreak")
	}
	for i := 0; i < 40; i += 2 {
		ix.Remove(fmt.Sprintf("d%02d", i))
	}
	ix.Add("d00", "body", "fever") // re-add out of order

	snap := ix.TermSnapshots([]string{"fever"})[0]
	want := lookupDocs(ix, "fever")
	if !reflect.DeepEqual(snap.Docs, want) {
		t.Fatalf("after churn: snapshot %v != lookup %v", snap.Docs, want)
	}
	if !sort.StringsAreSorted(snap.Docs) {
		t.Fatalf("snapshot not sorted: %v", snap.Docs)
	}
}

func TestBoundsAreMonotoneUpperBounds(t *testing.T) {
	ix := New()
	ix.SetFieldWeights(map[string]float64{"title": 3.0, "body": 1.0})
	ix.Add("p1", "body", "mask")
	ix.Add("p2", "title", "mask mandates")
	ix.Add("p2", "body", "mask mask")

	snap := ix.TermSnapshots([]string{"mask"})[0]
	// p2: 1 title occurrence (weight 3) + 2 body (weight 1) = 5.0
	if snap.MaxWTF != 5.0 {
		t.Fatalf("MaxWTF = %v, want 5.0", snap.MaxWTF)
	}
	if snap.MaxRaw != 3 {
		t.Fatalf("MaxRaw = %v, want 3", snap.MaxRaw)
	}

	// removal leaves the maxima stale-high: still valid upper bounds
	ix.Remove("p2")
	snap = ix.TermSnapshots([]string{"mask"})[0]
	if snap.MaxWTF < 1.0 {
		t.Fatalf("MaxWTF dropped below a live doc's weighted TF: %v", snap.MaxWTF)
	}
	if got := snap.Docs; !reflect.DeepEqual(got, []string{"p1"}) {
		t.Fatalf("Docs after remove = %v, want [p1]", got)
	}

	// removing the last doc drops the term and resets its maxima
	ix.Remove("p1")
	snap = ix.TermSnapshots([]string{"mask"})[0]
	if len(snap.Docs) != 0 || snap.MaxWTF != 0 || snap.MaxRaw != 0 {
		t.Fatalf("term should be gone entirely: %+v", snap)
	}
}

func TestSetFieldWeightsRecomputes(t *testing.T) {
	ix := New()
	ix.Add("p1", "title", "ventilator shortage")
	snap := ix.TermSnapshots([]string{"ventil"})[0]
	if snap.MaxWTF != 1.0 {
		t.Fatalf("unweighted MaxWTF = %v, want 1.0", snap.MaxWTF)
	}
	ix.SetFieldWeights(map[string]float64{"title": 3.0})
	snap = ix.TermSnapshots([]string{"ventil"})[0]
	if snap.MaxWTF != 3.0 {
		t.Fatalf("reweighted MaxWTF = %v, want 3.0", snap.MaxWTF)
	}
}

func TestStaticScores(t *testing.T) {
	ix := New()
	ix.Add("p1", "title", "anything")
	ix.AddDoc("p1", Analyze(nil), 0.06)
	if got := ix.Static("p1"); got != 0.06 {
		t.Fatalf("Static = %v, want 0.06", got)
	}
	if got := ix.Static("unknown"); got != 0 {
		t.Fatalf("Static(unknown) = %v, want 0", got)
	}
	ix.Remove("p1")
	if got := ix.Static("p1"); got != 0 {
		t.Fatalf("Static after Remove = %v, want 0", got)
	}
}
