package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// segTestDocs builds a deterministic pseudo-corpus: docs with a few
// fields drawn from a small vocabulary so terms collide across docs
// and segments.
func segTestDocs(n int, seed int64) []struct {
	id     string
	fields map[string]string
} {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{
		"mask", "vaccine", "fever", "dose", "trial", "cohort", "viral",
		"load", "spike", "protein", "antibody", "serum", "icu", "oxygen",
	}
	sentence := func(k int) string {
		out := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				out += " "
			}
			out += vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	docs := make([]struct {
		id     string
		fields map[string]string
	}, n)
	for i := range docs {
		docs[i].id = fmt.Sprintf("doc-%04d", i)
		docs[i].fields = map[string]string{
			"title":    sentence(3 + rng.Intn(4)),
			"abstract": sentence(10 + rng.Intn(20)),
			"body":     sentence(30 + rng.Intn(40)),
		}
	}
	return docs
}

// buildPair indexes the same corpus into a flat (never-sealing) index
// and a segmented one (seal every sealEvery docs), removing every
// removeEvery-th doc from both.
func buildPair(t *testing.T, n, sealEvery, removeEvery int) (flat, segd *Index) {
	t.Helper()
	docs := segTestDocs(n, 42)
	weights := map[string]float64{"title": 3, "abstract": 2, "body": 1}

	flat = New()
	flat.SetSealThreshold(0)
	flat.SetFieldWeights(weights)
	segd = New()
	segd.SetSealThreshold(0)
	segd.SetFieldWeights(weights)

	// Seal synchronously every sealEvery docs: the threshold trigger
	// would coalesce batches whenever the background builder runs
	// slower than this loop (it does on a busy single-core runner),
	// and these tests need a deterministic segment count. Merges still
	// run in the background off each seal.
	for i, d := range docs {
		for f, text := range d.fields {
			flat.Add(d.id, f, text)
			segd.Add(d.id, f, text)
		}
		flat.AddDoc(d.id, Analyze(nil), float64(i)/float64(n))
		segd.AddDoc(d.id, Analyze(nil), float64(i)/float64(n))
		if sealEvery > 0 && (i+1)%sealEvery == 0 {
			segd.Seal()
		}
	}
	if removeEvery > 0 {
		for i, d := range docs {
			if i%removeEvery == 0 {
				flat.Remove(d.id)
				segd.Remove(d.id)
			}
		}
	}
	segd.Wait()
	return flat, segd
}

// assertSameView checks every public read API agrees between the two
// indexes.
func assertSameView(t *testing.T, flat, segd *Index, label string) {
	t.Helper()
	if a, b := flat.DocCount(), segd.DocCount(); a != b {
		t.Fatalf("%s: DocCount %d vs %d", label, a, b)
	}
	terms := flat.Terms()
	if got := segd.Terms(); !reflect.DeepEqual(terms, got) {
		t.Fatalf("%s: Terms diverged:\nflat %v\nsegd %v", label, terms, got)
	}
	// Probe every indexed (stemmed) term plus one that never appears.
	probe := append(append([]string(nil), terms...), "unseen")
	for _, term := range probe {
		if a, b := flat.DocFreq(term), segd.DocFreq(term); a != b {
			t.Fatalf("%s: DocFreq(%s) %d vs %d", label, term, a, b)
		}
		if a, b := flat.IDF(term), segd.IDF(term); a != b {
			t.Fatalf("%s: IDF(%s) %v vs %v", label, term, a, b)
		}
		if a, b := flat.Lookup(term), segd.Lookup(term); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Lookup(%s) diverged:\n%v\nvs\n%v", label, term, a, b)
		}
	}
	if a, b := flat.DocsWithAll([]string{"mask", "vaccine"}), segd.DocsWithAll([]string{"mask", "vaccine"}); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: DocsWithAll diverged: %v vs %v", label, a, b)
	}
	ttl := map[string]bool{"title": true}
	if a, b := segd.DocsWithAnyInFields([]string{"mask", "dose"}, ttl), flat.DocsWithAnyInFields([]string{"mask", "dose"}, ttl); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: DocsWithAnyInFields diverged: %v vs %v", label, a, b)
	}
	if a, b := flat.DocsWithAny([]string{"icu"}), segd.DocsWithAny([]string{"icu"}); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: DocsWithAny diverged: %v vs %v", label, a, b)
	}

	docs := flat.DocsWithAny([]string{"mask", "vaccine", "fever", "dose", "trial"})
	for _, doc := range docs {
		for _, term := range probe {
			for _, field := range []string{"title", "abstract", "body"} {
				if a, b := flat.TermFreq(term, doc, field), segd.TermFreq(term, doc, field); a != b {
					t.Fatalf("%s: TermFreq(%s,%s,%s) %d vs %d", label, term, doc, field, a, b)
				}
			}
			if a, b := flat.TFIDF(term, doc), segd.TFIDF(term, doc); a != b {
				t.Fatalf("%s: TFIDF(%s,%s) %v vs %v", label, term, doc, a, b)
			}
			if a, b := flat.FieldsOf(doc, term), segd.FieldsOf(doc, term); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: FieldsOf(%s,%s) %v vs %v", label, doc, term, a, b)
			}
		}
		if a, b := flat.MinPairDistance(doc, "mask", "vaccine"), segd.MinPairDistance(doc, "mask", "vaccine"); a != b {
			t.Fatalf("%s: MinPairDistance(%s) %d vs %d", label, doc, a, b)
		}
		if a, b := flat.Static(doc), segd.Static(doc); a != b {
			t.Fatalf("%s: Static(%s) %v vs %v", label, doc, a, b)
		}
	}

	// Snapshots: doc lists must be identical; segmented bounds may be
	// tighter (exact at seal) but never lower than the true per-doc
	// values — checked via: flat bound >= segd bound is NOT guaranteed
	// either way, so just require valid ordering data here.
	fs := flat.TermSnapshots(probe)
	ss := segd.TermSnapshots(probe)
	for i := range fs {
		if !reflect.DeepEqual(fs[i].Docs, ss[i].Docs) {
			t.Fatalf("%s: TermSnapshots(%s).Docs diverged:\n%v\nvs\n%v", label, fs[i].Term, fs[i].Docs, ss[i].Docs)
		}
		if ss[i].MaxWTF > fs[i].MaxWTF || ss[i].MaxRaw > fs[i].MaxRaw {
			// flat maxima are monotone upper bounds over the same adds,
			// so sealed exact maxima can never exceed them.
			t.Fatalf("%s: TermSnapshots(%s) sealed bounds exceed flat monotone bounds", label, fs[i].Term)
		}
	}
}

func TestSegmentedMatchesFlat(t *testing.T) {
	flat, segd := buildPair(t, 300, 50, 0)
	if st := segd.Stats(); st.Segments == 0 {
		t.Fatalf("expected sealed segments, got %+v", st)
	}
	assertSameView(t, flat, segd, "sealed")
}

func TestSegmentedMatchesFlatWithRemovals(t *testing.T) {
	flat, segd := buildPair(t, 300, 40, 7)
	// A background merge may already have GC'd some tombstones; the
	// differential view is the real assertion (43 of 300 removed).
	if st := segd.Stats(); st.Segments == 0 {
		t.Fatalf("expected segments, got %+v", st)
	}
	if n := segd.DocCount(); n != 300-43 {
		t.Fatalf("DocCount after removals = %d, want %d", n, 300-43)
	}
	assertSameView(t, flat, segd, "tombstoned")
}

func TestSegmentedMatchesFlatAfterCompact(t *testing.T) {
	flat, segd := buildPair(t, 300, 40, 7)
	segd.Compact()
	st := segd.Stats()
	if st.Segments != 1 || st.MemDocs != 0 {
		t.Fatalf("compact should leave one segment, got %+v", st)
	}
	if st.DeadDocs != 0 {
		t.Fatalf("compact should drop tombstones, got %+v", st)
	}
	assertSameView(t, flat, segd, "compacted")
}

func TestBackgroundMergeKeepsView(t *testing.T) {
	flat, segd := buildPair(t, 400, 25, 0)
	segd.Wait()
	st := segd.Stats()
	if st.Merges == 0 {
		t.Fatalf("expected background merges with 16 small seals, got %+v", st)
	}
	assertSameView(t, flat, segd, "merged")
}

func TestRemoveLastDocOfTermInSegment(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(0)
	ix.Add("d1", "title", "zebra quarantine")
	ix.Add("d2", "title", "quarantine ward")
	ix.Seal()
	ix.Remove("d1")
	if got := ix.Lookup("zebra"); got != nil {
		t.Fatalf("Lookup after removing term's only doc = %v, want nil", got)
	}
	if df := ix.DocFreq("zebra"); df != 0 {
		t.Fatalf("DocFreq = %d, want 0", df)
	}
	for _, term := range ix.Terms() {
		if term == "zebra" {
			t.Fatal("Terms still lists fully-tombstoned term")
		}
	}
	// "quarantine" stems to "quarantin"; snapshots take stemmed terms.
	snaps := ix.TermSnapshots([]string{"zebra", "quarantin"})
	if len(snaps[0].Docs) != 0 {
		t.Fatalf("snapshot for dead term has docs: %v", snaps[0].Docs)
	}
	if !reflect.DeepEqual(snaps[1].Docs, []string{"d2"}) {
		t.Fatalf("snapshot for live term = %v, want [d2]", snaps[1].Docs)
	}
}

// TestReaddAfterSealKeepsBoundsValid exercises the rare cross-part
// case: a doc id re-added after its postings were sealed. Combined
// bounds must stay valid upper bounds (switching from max to sum).
func TestReaddAfterSealKeepsBoundsValid(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(0)
	ix.Add("d1", "body", "spike spike spike")
	ix.Seal()
	ix.Add("d1", "body", "spike spike")
	if tf := ix.TermFreq("spike", "d1", "body"); tf != 5 {
		t.Fatalf("TermFreq across parts = %d, want 5", tf)
	}
	snap := ix.TermSnapshots([]string{"spike"})[0]
	if !reflect.DeepEqual(snap.Docs, []string{"d1"}) {
		t.Fatalf("snapshot docs = %v", snap.Docs)
	}
	if snap.MaxRaw < 5 {
		t.Fatalf("MaxRaw = %d: bound below true per-doc tf 5", snap.MaxRaw)
	}
	if snap.MaxWTF < 5 {
		t.Fatalf("MaxWTF = %v: bound below true per-doc wtf 5", snap.MaxWTF)
	}
	// Positions must continue across the part boundary.
	ps := ix.Lookup("spike")
	if len(ps) != 1 || len(ps[0].Positions) != 5 {
		t.Fatalf("Lookup = %+v, want one posting with 5 positions", ps)
	}
	if !reflect.DeepEqual(ps[0].Positions, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("positions = %v, want continuation 0..4", ps[0].Positions)
	}
}

func TestSealThresholdTriggersInBackground(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(10)
	docs := segTestDocs(55, 7)
	for _, d := range docs {
		for f, text := range d.fields {
			ix.Add(d.id, f, text)
		}
	}
	ix.Wait()
	st := ix.Stats()
	if st.Seals == 0 || st.Segments == 0 {
		t.Fatalf("expected automatic seals, got %+v", st)
	}
	if st.MemDocs+st.SegmentDocs != 55 {
		t.Fatalf("doc accounting broken: %+v", st)
	}
}

// TestMergeKeepsReaddedDocOverItsTombstone pins the bug the differential
// test's first seed found: a doc removed and re-added sits in two merge
// inputs, tombstoned in the older and live in the newer, and the merge's
// catch-up pass used to apply the old copy's tombstone to the merged doc
// — the re-added document vanished from the index.
func TestMergeKeepsReaddedDocOverItsTombstone(t *testing.T) {
	ix := New()
	ix.SetSealThreshold(0)
	ix.Add("a", "title", "mask mandate")
	ix.Add("b", "title", "vaccine trial")
	ix.Seal()
	ix.Remove("a")
	ix.Add("a", "title", "oxygen therapy")
	ix.AddDoc("a", Analyze(nil), 0.5)
	ix.Seal()
	ix.Compact()

	if got := ix.DocCount(); got != 2 {
		t.Fatalf("DocCount = %d after merging a tombstoned copy with its re-add, want 2", got)
	}
	if got := ix.DocsWithAny([]string{"oxygen"}); len(got) != 1 || got[0] != "a" {
		t.Fatalf("re-added content lost in the merge: DocsWithAny(oxygen) = %v", got)
	}
	if got := ix.DocsWithAny([]string{"mask"}); len(got) != 0 {
		t.Fatalf("removed content resurrected by the merge: DocsWithAny(mask) = %v", got)
	}
	if got := ix.Static("a"); got != 0.5 {
		t.Fatalf("Static(a) = %v after the merge, want the re-add's 0.5", got)
	}
}
