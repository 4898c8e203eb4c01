package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"covidkg/internal/textproc"
)

// TestAddDocMatchesNaive holds the one-call indexing path to two
// references over seeded documents: the naive term → doc → field →
// positions oracle of the differential test, and a twin index fed the
// same documents one text at a time through Add (the sequence AddDoc
// replaces) with the static score set by an empty AddDoc. Documents take
// their fields in random order, repeat fields, carry texts without
// content words, are re-added while still in the memtable, re-added
// after a seal (their postings then span parts), and removed and
// re-added; the field weights change mid-run. After every step the
// subject must agree with the oracle on every term's postings and
// positions, document frequency, document count, static score and the
// set of terms with a write generation; with the twin on each term's
// bounds, bit for bit; and the bounds must cover every live document's
// term frequencies as the oracle counts them.
func TestAddDocMatchesNaive(t *testing.T) {
	words := []string{"mask", "vaccine", "fever", "dose", "trial", "cohort", "viral",
		"spike", "protein", "antibody", "serum", "icu", "oxygen", "the"}
	fields := []string{"title", "abstract", "body", "table_cell", "figure_caption"}
	var terms []string
	for _, w := range words {
		terms = append(terms, textproc.ContentWords(w)...)
	}
	const pool = 40
	docID := func(i int) string { return fmt.Sprintf("d%03d", (i*17)%pool) } // not in id order

	added := 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		weights := func() map[string]float64 {
			w := map[string]float64{}
			for _, f := range fields[:3] {
				w[f] = float64(1 + rng.Intn(4))
			}
			return w
		}
		ix, tw := New(), New()
		for _, x := range []*Index{ix, tw} {
			x.SetSealThreshold(0)
		}
		w := weights()
		ix.SetFieldWeights(w)
		tw.SetFieldWeights(w)

		ref := newNaiveIndex()
		static := map[string]float64{}
		sealed := map[string]bool{} // live with a copy in a sealed part
		spans := map[string]bool{}  // re-added while sealed: one static per copy
		written := map[string]bool{}
		live := func(doc string) bool { _, ok := ref.fieldLen[doc]; return ok }

		add := func(doc string) {
			n := 1 + rng.Intn(6)
			texts := make([]FieldText, n)
			for i := range texts {
				ws := make([]string, rng.Intn(8)) // zero words: a text without tokens
				for k := range ws {
					ws[k] = words[rng.Intn(len(words))]
				}
				texts[i] = FieldText{fields[rng.Intn(len(fields))], strings.Join(ws, " ")}
			}
			v := float64(rng.Intn(1000)) / 7
			if sealed[doc] {
				spans[doc] = true
			}
			ix.AddDoc(doc, Analyze(texts), v)
			for _, ft := range texts {
				tw.Add(doc, ft.Field, ft.Text)
				ref.add(doc, ft.Field, ft.Text)
				for _, term := range textproc.ContentWords(ft.Text) {
					written[term] = true
				}
			}
			tw.AddDoc(doc, Analyze(nil), v)
			static[doc] = v
			added++
		}

		check := func(step int, op string) {
			t.Helper()
			fail := func(what string, got, want any) {
				t.Helper()
				t.Fatalf("seed %d step %d (after %s): %s = %v, want %v", seed, step, op, what, got, want)
			}
			// A document whose postings span parts is counted once per part
			// (as it always was): only the twin says what DocCount and
			// DocFreq are then.
			if got, want := ix.DocCount(), tw.DocCount(); got != want {
				fail("DocCount against the Add sequence", got, want)
			}
			if got, want := ix.DocCount(), len(ref.fieldLen); len(spans) == 0 && got != want {
				fail("DocCount", got, want)
			}
			for _, term := range terms {
				if got, want := ix.Lookup(term), ref.lookup(term); !sameList(got, want) {
					fail("Lookup("+term+")", got, want)
				}
				if got, want := ix.DocFreq(term), tw.DocFreq(term); got != want {
					fail("DocFreq("+term+") against the Add sequence", got, want)
				}
				if got, want := ix.DocFreq(term), len(ref.postings[term]); len(spans) == 0 && got != want {
					fail("DocFreq("+term+")", got, want)
				}
			}
			got, want := ix.TermSnapshots(terms), tw.TermSnapshots(terms)
			for i, term := range terms {
				if math.Float64bits(got[i].MaxWTF) != math.Float64bits(want[i].MaxWTF) || got[i].MaxRaw != want[i].MaxRaw {
					fail("bounds("+term+")", [2]any{got[i].MaxWTF, got[i].MaxRaw}, [2]any{want[i].MaxWTF, want[i].MaxRaw})
				}
				// The twin shares the bound code: the reference says what
				// the live documents need the bounds to cover.
				var raw, wtf float64
				for _, byField := range ref.postings[term] {
					var r, wt float64
					for f, pos := range byField {
						r += float64(len(pos))
						wt += float64(len(pos)) * fieldWeight(w, f)
					}
					raw, wtf = max(raw, r), max(wtf, wt)
				}
				if float64(got[i].MaxRaw) < raw || got[i].MaxWTF < wtf {
					fail("bounds("+term+") below the reference's largest document", [2]any{got[i].MaxWTF, got[i].MaxRaw}, [2]any{wtf, raw})
				}
				if !sameList(got[i].Docs, want[i].Docs) {
					fail("TermSnapshots("+term+").Docs", got[i].Docs, want[i].Docs)
				}
			}
			for i := 0; i < pool; i++ {
				doc := docID(i)
				if got, want := ix.Static(doc), tw.Static(doc); math.Float64bits(got) != math.Float64bits(want) {
					fail("Static("+doc+") against the Add sequence", got, want)
				}
				if got, want := ix.Static(doc), static[doc]; !spans[doc] && got != want {
					fail("Static("+doc+")", got, want)
				}
			}
			gens := ix.TermGens(terms)
			for i, term := range terms {
				if got, want := gens[i] != 0, written[term]; got != want {
					fail("has TermGens("+term+")", got, want)
				}
			}
			if a, b := ix.TermGens(terms), tw.TermGens(terms); !reflect.DeepEqual(nonzero(a), nonzero(b)) {
				fail("TermGens key set against the Add sequence", nonzero(a), nonzero(b))
			}
		}

		for step := 0; step < 150; step++ {
			if step == 100 {
				w = weights()
				ix.SetFieldWeights(w)
				tw.SetFieldWeights(w)
				check(step, "SetFieldWeights")
			}
			doc := docID(rng.Intn(pool))
			switch r := rng.Intn(100); {
			case r < 70:
				op := "add " + doc // new, or re-added in the memtable
				switch {
				case !live(doc):
					op = "add new " + doc
				case sealed[doc] && rng.Intn(4) > 0:
					ix.Remove(doc)
					tw.Remove(doc)
					ref.remove(doc)
					delete(sealed, doc)
					delete(spans, doc)
					op = "remove and re-add " + doc
				case sealed[doc]:
					op = "re-add after a seal " + doc
				}
				add(doc)
				check(step, op)
			case r < 82:
				if !live(doc) {
					continue
				}
				ix.Remove(doc)
				tw.Remove(doc)
				ref.remove(doc)
				delete(static, doc)
				delete(sealed, doc)
				delete(spans, doc)
				check(step, "remove "+doc)
			default:
				for _, x := range []*Index{ix, tw} {
					x.Seal()
					x.Wait()
				}
				for d := range ref.fieldLen {
					sealed[d] = true
				}
				check(step, "seal")
			}
		}
	}
	if added < 200 {
		t.Fatalf("only %d documents added, want at least 200", added)
	}
}

// nonzero returns the indexes of the non-zero entries.
func nonzero(v []uint64) []int {
	var out []int
	for i, x := range v {
		if x != 0 {
			out = append(out, i)
		}
	}
	return out
}
