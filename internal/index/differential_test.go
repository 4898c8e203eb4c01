package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"covidkg/internal/textproc"
)

// naiveIndex is the oracle of the differential test: the obvious
// term → doc → field → positions map, no memtable, no segments, no
// tombstones. It shares only the tokenizer with the real index.
type naiveIndex struct {
	postings map[string]map[string]map[string][]int
	fieldLen map[string]map[string]int
}

func newNaiveIndex() *naiveIndex {
	return &naiveIndex{
		postings: map[string]map[string]map[string][]int{},
		fieldLen: map[string]map[string]int{},
	}
}

func (n *naiveIndex) add(doc, field, text string) {
	if n.fieldLen[doc] == nil {
		n.fieldLen[doc] = map[string]int{}
	}
	for _, term := range textproc.ContentWords(text) {
		if n.postings[term] == nil {
			n.postings[term] = map[string]map[string][]int{}
		}
		if n.postings[term][doc] == nil {
			n.postings[term][doc] = map[string][]int{}
		}
		n.postings[term][doc][field] = append(n.postings[term][doc][field], n.fieldLen[doc][field])
		n.fieldLen[doc][field]++
	}
}

func (n *naiveIndex) remove(doc string) {
	for term, byDoc := range n.postings {
		delete(byDoc, doc)
		if len(byDoc) == 0 {
			delete(n.postings, term)
		}
	}
	delete(n.fieldLen, doc)
}

func (n *naiveIndex) termFreq(term, doc, field string) int {
	return len(n.postings[term][doc][field])
}

func (n *naiveIndex) fieldsOf(doc, term string) []string {
	var out []string
	for f := range n.postings[term][doc] {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

func (n *naiveIndex) lookup(term string) []Posting {
	var out []Posting
	for doc, byField := range n.postings[term] {
		for f, pos := range byField {
			out = append(out, Posting{DocID: doc, Field: f, Positions: append([]int(nil), pos...)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DocID != out[j].DocID {
			return out[i].DocID < out[j].DocID
		}
		return out[i].Field < out[j].Field
	})
	return out
}

func (n *naiveIndex) minPairDistance(doc, a, b string) int {
	best := -1
	for f, posA := range n.postings[a][doc] {
		for _, pa := range posA {
			for _, pb := range n.postings[b][doc][f] {
				d := pa - pb
				if d < 0 {
					d = -d
				}
				if best < 0 || d < best {
					best = d
				}
			}
		}
	}
	return best
}

// runs is the cursor's view of one (term, doc): a run per field, in
// field-name order.
func (n *naiveIndex) runs(term, doc string) []Run {
	var out []Run
	for _, f := range n.fieldsOf(doc, term) {
		out = append(out, Run{f, n.postings[term][doc][f]})
	}
	return out
}

// docsWith returns the sorted docs holding any (all=false) or every
// (all=true) term.
func (n *naiveIndex) docsWith(terms []string, all bool) []string {
	count := map[string]int{}
	for _, t := range terms {
		for doc := range n.postings[t] {
			count[doc]++
		}
	}
	var out []string
	for doc, c := range count {
		if !all || c == len(terms) {
			out = append(out, doc)
		}
	}
	sort.Strings(out)
	return out
}

// sameList compares two lists with nil equal to empty.
func sameList(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Len() == vb.Len() && (va.Len() == 0 || reflect.DeepEqual(a, b))
}

// TestDifferentialAgainstNaive drives random add / remove / seal /
// compact sequences (background merges ride on the seals) through the
// segmented index and the naive oracle, and compares every read the
// rankers use — the posting cursor's whole stream among them — after
// each step that changes the segment structure. Doc
// ids are re-added after removal and after sealing, so tombstones and
// postings that span parts are both exercised.
func TestDifferentialAgainstNaive(t *testing.T) {
	words := []string{"mask", "vaccine", "fever", "dose", "trial", "cohort", "spike", "protein", "antibody", "oxygen"}
	fields := []string{"title", "abstract", "body", "table_cell"}
	terms := make([]string, len(words))
	for i, w := range words {
		terms[i] = textproc.ContentWords(w)[0]
	}
	const docs = 12
	docID := func(i int) string { return fmt.Sprintf("doc-%02d", i) }

	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := New()
		ix.SetSealThreshold(0)
		ix.SetFieldWeights(map[string]float64{"title": 3, "abstract": 2})
		ref := newNaiveIndex()

		compare := func(step int, op string) {
			t.Helper()
			fail := func(what string, got, want any) {
				t.Helper()
				t.Fatalf("seed %d step %d (after %s): %s = %v, naive reference says %v", seed, step, op, what, got, want)
			}
			for ti, term := range terms {
				got, want := ix.Lookup(term), ref.lookup(term)
				if !sameList(got, want) {
					fail("Lookup("+term+")", got, want)
				}
				for d := 0; d < docs; d++ {
					doc := docID(d)
					if got, want := ix.FieldsOf(doc, term), ref.fieldsOf(doc, term); !sameList(got, want) {
						fail(fmt.Sprintf("FieldsOf(%s, %s)", doc, term), got, want)
					}
					for _, f := range fields {
						if got, want := ix.TermFreq(term, doc, f), ref.termFreq(term, doc, f); got != want {
							fail(fmt.Sprintf("TermFreq(%s, %s, %s)", term, doc, f), got, want)
						}
					}
					other := terms[(ti+1+d)%len(terms)]
					if got, want := ix.MinPairDistance(doc, term, other), ref.minPairDistance(doc, term, other); got != want {
						fail(fmt.Sprintf("MinPairDistance(%s, %s, %s)", doc, term, other), got, want)
					}
				}
				set := []string{term, terms[(ti+3)%len(terms)], terms[(ti+7)%len(terms)]}
				if got, want := ix.DocsWithAny(set), ref.docsWith(set, false); !sameList(got, want) {
					fail(fmt.Sprintf("DocsWithAny(%v)", set), got, want)
				}
				if got, want := ix.DocsWithAll(set[:2]), ref.docsWith(set[:2], true); !sameList(got, want) {
					fail(fmt.Sprintf("DocsWithAll(%v)", set[:2]), got, want)
				}
			}

			// The cursor's (doc, runs) stream over every term at once: the
			// documents Next yields, and what each name holds there, against
			// the naive gather — then the same by Seek, over absent ids too.
			// A background merge may restructure a re-added document's parts
			// at any moment, and with them the summed df and which copy's
			// static score wins: hold the cursor's statistics to the index's
			// only when those stood still around the snapshot.
			stats := func() (idf []float64, static map[string]float64) {
				static = map[string]float64{}
				for _, term := range terms {
					idf = append(idf, ix.IDF(term))
				}
				for d := 0; d < docs; d++ {
					static[docID(d)] = ix.Static(docID(d))
				}
				return idf, static
			}
			idf0, static0 := stats()
			cur := ix.Cursor(terms)
			idf1, static1 := stats()
			still := reflect.DeepEqual(idf0, idf1) && reflect.DeepEqual(static0, static1)
			for i, term := range terms {
				if got := cur.IDF(i); still && got != idf0[i] {
					fail("cursor IDF("+term+")", got, idf0[i])
				}
			}
			atDoc := func(how, doc string) {
				t.Helper()
				for i, term := range terms {
					want := ref.runs(term, doc)
					if got := cur.Runs(i); !sameList(got, want) {
						fail(fmt.Sprintf("cursor %s %s: Runs(%s)", how, doc, term), got, want)
					}
					if got := cur.Has(i); got != (len(want) > 0) {
						fail(fmt.Sprintf("cursor %s %s: Has(%s)", how, doc, term), got, len(want) > 0)
					}
				}
				if got, want := cur.Static(), static0[doc]; still && got != want {
					fail(fmt.Sprintf("cursor %s %s: Static", how, doc), got, want)
				}
			}
			var stream []string
			for doc, ok := cur.Next(); ok; doc, ok = cur.Next() {
				stream = append(stream, doc)
				atDoc("Next", doc)
			}
			if want := ref.docsWith(terms, false); !sameList(stream, want) {
				fail("cursor Next stream", stream, want)
			}
			for d := -1; d <= docs; d++ { // doc--1 and doc-12 sort around the corpus and never exist
				if hit := cur.Seek(docID(d)); hit != slices.Contains(stream, docID(d)) {
					fail("cursor Seek("+docID(d)+")", hit, !hit)
				}
				if slices.Contains(stream, docID(d)) {
					atDoc("Seek", docID(d))
				}
			}
		}

		for step := 0; step < 150; step++ {
			switch r := rng.Intn(100); {
			case r < 70:
				doc, field := docID(rng.Intn(docs)), fields[rng.Intn(len(fields))]
				text := make([]string, 1+rng.Intn(6))
				for i := range text {
					text[i] = words[rng.Intn(len(words))]
				}
				ix.Add(doc, field, strings.Join(text, " "))
				ref.add(doc, field, strings.Join(text, " "))
				if step%10 == 0 {
					compare(step, "add")
				}
			case r < 82:
				doc := docID(rng.Intn(docs))
				ix.Remove(doc)
				ref.remove(doc)
				compare(step, "remove "+doc)
			case r < 96:
				ix.Seal()
				compare(step, "seal")
			default:
				ix.Compact()
				compare(step, "compact")
			}
		}
		ix.Wait()
		compare(150, "final wait")
	}
}
