package search

import (
	"context"
	"slices"
	"sync"
	"testing"

	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// countingDocs records the ids of every GetMany, in call order.
type countingDocs struct {
	docstore.Docs
	mu    sync.Mutex
	calls [][]string
}

func (c *countingDocs) GetMany(ctx context.Context, ids []string) ([]jsondoc.Doc, []int, error) {
	c.mu.Lock()
	c.calls = append(c.calls, slices.Clone(ids))
	c.mu.Unlock()
	return c.Docs.GetMany(ctx, ids)
}

// phraseCorpus is hand-built so that every boundary of "the postings
// allow the phrase" has a document on each side of it.
func phraseCorpus() []jsondoc.Doc {
	return []jsondoc.Doc{
		// "viral load"
		pub("adj", "Cohort report", "High viral load in the cohort.", ""),
		pub("split", "Viral dynamics", "The load on hospitals.", ""), // two fields
		pub("rev", "Estimates", "Load viral estimates.", ""),         // reversed
		pub("gap", "Antigen", "Viral antigen load measured.", ""),    // a content word between
		pub("cells", "Assay", "", "", table("Measurements", []string{"viral", "load"}, []string{"3", "4"})),
		pub("caps", "Ages", "", "", table("Summary of viral"), table("Load by age")),
		// "risk of infection": the stopword drops out on both sides
		pub("risk1", "Exposure", "The risk of infection rises.", ""),
		pub("risk2", "Models", "Risk infection models.", ""), // adjacent content words, other text
		pub("risk3", "Low", "Infection risk is low.", ""),
		// "dose by dose": a repeated word
		pub("rep1", "Titration", "Titrated dose by dose.", ""),
		pub("rep2", "Single", "One dose only.", ""),
		// "sars-cov": a hyphenated token is one token
		pub("hyp1", "SARS-CoV-2 spread", "", ""),
		pub("hyp2", "The SARS-CoV lineage", "", ""),
		// "masks": a single-word phrase is the surface form of one stem
		pub("mask1", "Masks work", "", ""),
		pub("mask2", "A mask works", "", ""),
		// "ask wear" is a substring of the title, never two of its tokens
		pub("school", "Mask wearing in schools", "", ""),
		// fever's synonym, and nothing else of the queries
		pub("syn", "Pyrexia in adults", "", ""),
	}
}

// TestPhrasePositionalBoundaries: for each boundary, the page (equal to
// the oracle's), the hits, and exactly which candidates were read to rank
// — those whose postings allow the phrase in a ranked field, plus, under
// NoSynonyms, those a synonym alone admitted. Every candidate that was
// not read scores bit for bit the same with its document in hand.
func TestPhrasePositionalBoundaries(t *testing.T) {
	coll := docstore.Open(docstore.WithShards(3)).Collection("pubs")
	for _, d := range phraseCorpus() {
		if _, err := coll.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	all := func(q string) func(*Engine) (Page, Page, plan) {
		return func(e *Engine) (Page, Page, plan) {
			terms, _ := queryOrError(q)
			got, _ := e.SearchAllContext(context.Background(), q, 1)
			return got, e.refRank(e.allPlan(terms), 1), e.allPlan(terms)
		}
	}
	tables := func(q string) func(*Engine) (Page, Page, plan) {
		return func(e *Engine) (Page, Page, plan) {
			terms, _ := queryOrError(q)
			got, _ := e.SearchTablesContext(context.Background(), q, 1)
			return got, e.refRank(e.tablesPlan(terms), 1), e.tablesPlan(terms)
		}
	}
	fields := func(fq FieldQuery) func(*Engine) (Page, Page, plan) {
		return func(e *Engine) (Page, Page, plan) {
			conds, terms, _ := parseFieldQuery(fq)
			got, _ := e.SearchFieldsContext(context.Background(), fq, 1)
			return got, e.refRank(e.fieldsPlan(conds, terms), 1), e.fieldsPlan(conds, terms)
		}
	}
	cases := []struct {
		name string
		opts RankOptions
		run  func(*Engine) (got, want Page, q plan)
		hits []string // sorted
		read []string // sorted: read in order to rank
		half string   // this hit matched one of the query's two terms: the phrase earned it nothing
	}{
		{name: "adjacent in one field; not two fields, reversed, or around a content word; cells and captions are adjacent but not text",
			run: all(`"viral load"`), hits: []string{"adj"}, read: []string{"adj", "caps", "cells"}},
		{name: "a bare term admits a document the phrase does not; it is not read",
			run: all(`"viral load" hospitals`), hits: []string{"adj", "split"}, read: []string{"adj", "caps", "cells"}},
		// "vir" is no index term, but a prefix of the token "viral": the match
		// predicate accepts what it is shown, and is shown only the three
		{name: "narrowing: scattered words are no longer shown to the prefix rule",
			run: all(`"viral load" vir`), hits: []string{"adj", "caps", "cells"}, read: []string{"adj", "caps", "cells"}},
		{name: "table engine ranks table fields: the abstract's phrase is not one of them",
			run: tables(`"viral load"`), hits: nil, read: []string{"caps", "cells"}},
		{name: "fields engine: the phrase in its own field",
			run: fields(FieldQuery{Title: `"viral dynamics"`, Abstract: "load"}), hits: []string{"split"}, read: []string{"split"}},
		{name: "fields engine: the phrase's words in another ranked field do not admit",
			run: fields(FieldQuery{Title: `"viral load"`}), hits: nil, read: nil},
		{name: "bridged by a stopword", run: all(`"risk of infection"`), hits: []string{"risk1"}, read: []string{"risk1", "risk2"}},
		{name: "repeated word", run: all(`"dose by dose"`), hits: []string{"rep1"}, read: []string{"rep1"}},
		{name: "hyphenated token", run: all(`"sars-cov"`), hits: []string{"hyp2"}, read: []string{"hyp2"}},
		{name: "single-word phrase", run: all(`"masks"`), hits: []string{"mask1"}, read: []string{"mask1", "mask2", "school"}},
		{name: "narrowing: a cross-token substring earns no credit",
			run: all(`"ask wear" schools`), hits: []string{"school"}, read: nil, half: "school"},
		{name: "synonym admits, synonyms on", run: all(`"viral load" fever`),
			hits: []string{"adj", "syn"}, read: []string{"adj", "caps", "cells"}},
		{name: "synonym admits alone, NoSynonyms: read and turned away", opts: RankOptions{NoSynonyms: true},
			run: all(`"viral load" fever`), hits: []string{"adj"}, read: []string{"adj", "caps", "cells", "syn"}},
		{name: "no phrase: winners only", run: all("hospitals viral"), hits: []string{"adj", "gap", "rev", "split", "caps", "cells"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cd := &countingDocs{Docs: coll}
			e, reg := parityEngine(t, cd)
			e.SetRankOptions(tc.opts)
			got, want, q := tc.run(e)
			diffPages(t, "page", got, want)

			var ids []string
			for _, r := range got.Results {
				ids = append(ids, r.DocID)
			}
			slices.Sort(ids)
			slices.Sort(tc.hits)
			if !slices.Equal(ids, tc.hits) || got.Total != len(tc.hits) {
				t.Fatalf("hits %v (Total %d), want %v", ids, got.Total, tc.hits)
			}

			// the engine's own GetMany calls come first: the candidates read
			// to rank (iff candidate_read_docs moved), then the winners not
			// yet in hand; the oracle's follow
			var read []string
			if n := reg.Counter("candidate_read_docs").Value(); n > 0 {
				if read = cd.calls[0]; int(n) != len(read) {
					t.Fatalf("candidate_read_docs = %d, first GetMany had %v", n, read)
				}
			}
			if !slices.Equal(read, tc.read) {
				t.Fatalf("read %v to rank, want %v", read, tc.read)
			}
			if n := reg.Counter("candidate_read_queries").Value(); (n == 1) != (len(tc.read) > 0) || n > 1 {
				t.Fatalf("candidate_read_queries = %d with %d candidates read", n, len(tc.read))
			}
			if !q.verify {
				if slices.Sort(cd.calls[0]); !slices.Equal(cd.calls[0], tc.hits) {
					t.Fatalf("a query without a phrase fetched %v, want its winners %v", cd.calls[0], tc.hits)
				}
			}

			for _, id := range q.candidates {
				if slices.Contains(read, id) {
					continue
				}
				d, err := coll.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				unread, inHand := q.rank.score(id, nil), q.rank.score(id, d)
				if !sameBits(unread, inHand) {
					t.Fatalf("%s was not read, yet scores %+v unread and %+v with its document", id, unread, inHand)
				}
				if q.verify && !q.match(d) {
					t.Fatalf("%s was not read, yet the match predicate rejects it", id)
				}
			}
			if tc.half != "" {
				d, _ := coll.Get(tc.half)
				if ex := q.rank.score(tc.half, d); ex.Coverage != wCoverage/2 {
					t.Fatalf("coverage %v: the phrase was credited", ex.Coverage)
				}
			}
		})
	}
}

// TestPhraseQueryReadsOnlyAlignedCandidates: on the cold-page corpus a
// `"w1 w2" w3` query has well over a hundred candidates through w3; it
// reads no more documents than hold w1 w2 side by side, and the bound
// prunes among the rest (w3 has synonyms: a document holding only one of
// those is bounded low — one bare term's own bound hardly ever prunes).
func TestPhraseQueryReadsOnlyAlignedCandidates(t *testing.T) {
	e := coldPageEngine(t)
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)
	g := newRefGathers(e.Index())
	aligned := 0
	for _, id := range e.coll.IDs() {
		if g.phrasePossible(id, "vaccine mrna", nil) {
			aligned++
		}
	}
	const q = `"vaccine mRNA" transmission`
	pg, err := e.SearchAllContext(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refSearch(e, e.allPlan, q, 1)
	diffPages(t, q, pg, want)
	read := reg.Counter("candidate_read_docs").Value()
	if aligned == 0 || read == 0 || read > int64(aligned) || pg.Total < 5*aligned {
		t.Fatalf("read %d of %d hits; %d documents hold the words side by side", read, pg.Total, aligned)
	}
	if reg.Counter("topk_pruned_docs").Value() == 0 {
		t.Fatal("nothing pruned among the candidates ranked from postings")
	}
	t.Logf("%d hits, %d aligned, %d read, %d pruned", pg.Total, aligned, read, reg.Counter("topk_pruned_docs").Value())
}
