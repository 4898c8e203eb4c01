package search

import (
	"context"
	"strings"
	"testing"
	"unicode/utf8"

	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/textproc"
)

// pub builds a minimal publication document.
func pub(id, title, abstract, body string, tables ...jsondoc.Doc) jsondoc.Doc {
	ts := make([]any, len(tables))
	for i, t := range tables {
		ts[i] = map[string]any(t)
	}
	return jsondoc.Doc{
		"_id":          id,
		"title":        title,
		"abstract":     abstract,
		"body_text":    body,
		"authors":      []any{"A. Author", "B. Author"},
		"journal":      "Test Journal",
		"publish_date": "2021-06-01",
		"tables":       ts,
	}
}

func table(caption string, rows ...[]string) jsondoc.Doc {
	rs := make([]any, len(rows))
	for i, r := range rows {
		cells := make([]any, len(r))
		for j, c := range r {
			cells[j] = c
		}
		rs[i] = cells
	}
	return jsondoc.Doc{"caption": caption, "rows": rs}
}

func testEngine(t *testing.T) *Engine {
	t.Helper()
	s := docstore.Open()
	c := s.Collection("pubs")
	docs := []jsondoc.Doc{
		pub("p1",
			"Masks and transmission of SARS-CoV-2",
			"We analyze mask mandates. Masks reduce droplet transmission substantially.",
			"Long body text about masks, distancing and ventilation in hospitals."),
		pub("p2",
			"Vaccine side effects in healthcare workers",
			"Fever and fatigue were the most common side effects after vaccination.",
			"Body text about immunization outcomes.",
			table("Table 1: Side effects by vaccine and dose",
				[]string{"Vaccine", "Dose", "Fever %"},
				[]string{"Pfizer-BioNTech", "1", "8.5"},
				[]string{"Moderna", "2", "15.2"})),
		pub("p3",
			"Ventilator allocation during surge",
			"Intensive care units faced ventilator shortages.",
			"Discussion of ventilators and triage.",
			table("Table 2: Ventilators per region",
				[]string{"Region", "Ventilators"},
				[]string{"North", "120"},
				[]string{"South", "85"})),
	}
	for _, d := range docs {
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngine(c)
}

func TestSearchAllBasic(t *testing.T) {
	e := testEngine(t)
	page, err := e.SearchAllContext(context.Background(), "masks", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 {
		t.Fatalf("total = %d", page.Total)
	}
	if page.Results[0].DocID != "p1" {
		t.Fatalf("hit = %v", page.Results[0])
	}
	if len(page.Results[0].Snippets) == 0 {
		t.Fatal("no snippets")
	}
}

func TestSearchAllStemming(t *testing.T) {
	e := testEngine(t)
	// "vaccination" stems to vaccin, matching "vaccine"/"vaccination"
	page, err := e.SearchAllContext(context.Background(), "vaccinations", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total < 1 {
		t.Fatal("stemming match failed")
	}
	found := false
	for _, r := range page.Results {
		if r.DocID == "p2" {
			found = true
		}
	}
	if !found {
		t.Fatal("p2 should match via stemming")
	}
}

func TestSearchAllExactQuoted(t *testing.T) {
	e := testEngine(t)
	page, err := e.SearchAllContext(context.Background(), `"droplet transmission"`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || page.Results[0].DocID != "p1" {
		t.Fatalf("quoted phrase: %+v", page)
	}
	// phrase in different order must not match
	page, err = e.SearchAllContext(context.Background(), `"transmission droplet"`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 0 {
		t.Fatalf("reversed phrase matched: %+v", page.Results)
	}
}

func TestSearchFieldsInclusive(t *testing.T) {
	e := testEngine(t)
	// title matches p1, abstract term only in p2 — inclusive semantics
	// require each queried field to match, so no document qualifies.
	page, err := e.SearchFieldsContext(context.Background(), FieldQuery{Title: "masks", Abstract: "fever"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 0 {
		t.Fatalf("inclusive semantics violated: %+v", page.Results)
	}
	// both conditions satisfied by p2
	page, err = e.SearchFieldsContext(context.Background(), FieldQuery{Title: "vaccine", Abstract: "fever"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || page.Results[0].DocID != "p2" {
		t.Fatalf("got %+v", page.Results)
	}
}

func TestSearchFieldsCaption(t *testing.T) {
	e := testEngine(t)
	page, err := e.SearchFieldsContext(context.Background(), FieldQuery{Caption: "side effects"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || page.Results[0].DocID != "p2" {
		t.Fatalf("caption search: %+v", page.Results)
	}
	// caption snippets come first in the §2.1.1 result format
	if len(page.Results[0].Snippets) == 0 || page.Results[0].Snippets[0].Field != FieldTableCaption {
		t.Fatalf("snippet order: %+v", page.Results[0].Snippets)
	}
}

func TestSearchFieldsEmpty(t *testing.T) {
	e := testEngine(t)
	if _, err := e.SearchFieldsContext(context.Background(), FieldQuery{}, 1); err == nil {
		t.Fatal("empty field query should error")
	}
}

func TestSearchTablesMatchesCellsAndCaption(t *testing.T) {
	e := testEngine(t)
	page, err := e.SearchTablesContext(context.Background(), "ventilators", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || page.Results[0].DocID != "p3" {
		t.Fatalf("table search: %+v", page.Results)
	}
	// cell-only term
	page, err = e.SearchTablesContext(context.Background(), "Moderna", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || page.Results[0].DocID != "p2" {
		t.Fatalf("cell match: %+v", page.Results)
	}
	// body-only term must NOT hit the table engine
	page, err = e.SearchTablesContext(context.Background(), "distancing", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 0 {
		t.Fatalf("body term leaked into table search: %+v", page.Results)
	}
}

func TestMatchingTables(t *testing.T) {
	e := testEngine(t)
	tabs, err := e.MatchingTables("p2", "fever")
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 {
		t.Fatalf("tables = %d", len(tabs))
	}
	if !strings.Contains(tabs[0].GetString("caption"), "Side effects") {
		t.Fatalf("caption = %q", tabs[0].GetString("caption"))
	}
	tabs, err = e.MatchingTables("p2", "zebra")
	if err != nil || len(tabs) != 0 {
		t.Fatalf("no-match: %v %v", tabs, err)
	}
}

func TestRankingTitleBeatsBody(t *testing.T) {
	s := docstore.Open()
	c := s.Collection("pubs")
	c.Insert(pub("title-hit", "Masks work", "Nothing here.", "Nothing here either."))
	c.Insert(pub("body-hit", "Unrelated title", "Nothing.", "A mention of masks deep in the body."))
	e := NewEngine(c)
	page, err := e.SearchAllContext(context.Background(), "masks", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 2 {
		t.Fatalf("total = %d", page.Total)
	}
	if page.Results[0].DocID != "title-hit" {
		t.Fatalf("title match should rank first: %+v", page.Results)
	}
	if page.Results[0].Score <= page.Results[1].Score {
		t.Fatal("scores not ordered")
	}
}

func TestRankingProximity(t *testing.T) {
	s := docstore.Open()
	c := s.Collection("pubs")
	c.Insert(pub("near", "t", "masks reduce transmission quickly", ""))
	c.Insert(pub("far", "t", "masks were distributed. later we measured cough and fever and finally transmission", ""))
	e := NewEngine(c)
	page, err := e.SearchAllContext(context.Background(), "masks transmission", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Results[0].DocID != "near" {
		t.Fatalf("proximity should favor 'near': %+v", page.Results)
	}
}

func TestRankingCoverage(t *testing.T) {
	s := docstore.Open()
	c := s.Collection("pubs")
	c.Insert(pub("both", "t", "masks and ventilators", ""))
	c.Insert(pub("one", "t", "masks masks masks masks masks masks", ""))
	e := NewEngine(c)
	page, err := e.SearchAllContext(context.Background(), "masks ventilators", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Results[0].DocID != "both" {
		t.Fatalf("coverage should favor matching all terms: %+v", page.Results)
	}
}

func TestPagination(t *testing.T) {
	s := docstore.Open()
	c := s.Collection("pubs")
	for i := 0; i < 23; i++ {
		c.Insert(pub(
			"p"+strings.Repeat("0", 3-len(itoa(i)))+itoa(i),
			"Masks study "+itoa(i), "About masks.", ""))
	}
	e := NewEngine(c)
	p1, err := e.SearchAllContext(context.Background(), "masks", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Total != 23 || p1.NumPages != 3 || len(p1.Results) != 10 {
		t.Fatalf("page1 = %+v", p1)
	}
	p3, _ := e.SearchAllContext(context.Background(), "masks", 3)
	if len(p3.Results) != 3 {
		t.Fatalf("page3 = %d results", len(p3.Results))
	}
	p9, _ := e.SearchAllContext(context.Background(), "masks", 9)
	if len(p9.Results) != 0 {
		t.Fatalf("past-end page = %d results", len(p9.Results))
	}
	// no overlap between pages
	seen := map[string]bool{}
	for _, pg := range []Page{p1, p3} {
		for _, r := range pg.Results {
			if seen[r.DocID] {
				t.Fatalf("doc %s on two pages", r.DocID)
			}
			seen[r.DocID] = true
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func TestSnippetHighlights(t *testing.T) {
	e := testEngine(t)
	page, err := e.SearchAllContext(context.Background(), "masks", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range page.Results[0].Snippets {
		if len(sn.Highlights) == 0 {
			t.Fatalf("snippet without highlights: %+v", sn)
		}
		for _, h := range sn.Highlights {
			frag := strings.ToLower(sn.Text[h[0]:h[1]])
			if !strings.HasPrefix(frag, "mask") {
				t.Fatalf("highlight %q is not a match", frag)
			}
		}
		marked := sn.HighlightMarked()
		if !strings.Contains(marked, "[[") {
			t.Fatalf("HighlightMarked lost markers: %q", marked)
		}
	}
}

func TestAddRemoveDocument(t *testing.T) {
	s := docstore.Open()
	c := s.Collection("pubs")
	e := NewEngine(c)
	id, err := e.AddDocument(pub("", "Remdesivir trial", "Antiviral treatment outcomes.", ""))
	if err != nil {
		t.Fatal(err)
	}
	page, _ := e.SearchAllContext(context.Background(), "remdesivir", 1)
	if page.Total != 1 {
		t.Fatal("added doc not searchable")
	}
	if err := e.RemoveDocument(id); err != nil {
		t.Fatal(err)
	}
	page, _ = e.SearchAllContext(context.Background(), "remdesivir", 1)
	if page.Total != 0 {
		t.Fatal("removed doc still searchable")
	}
}

func TestEmptyQueryErrors(t *testing.T) {
	e := testEngine(t)
	for _, q := range []string{"", "the of and", `""`} {
		if _, err := e.SearchAllContext(context.Background(), q, 1); err == nil {
			t.Errorf("query %q should error", q)
		}
		if _, err := e.SearchTablesContext(context.Background(), q, 1); err == nil {
			t.Errorf("table query %q should error", q)
		}
	}
}

func TestSearchOverGeneratedCorpus(t *testing.T) {
	s := docstore.Open(docstore.WithShards(4))
	c := s.Collection("pubs")
	g := cord19.NewGenerator(99)
	for _, p := range g.Corpus(200) {
		if _, err := c.Insert(p.Doc()); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(c)
	// the paper's demo queries
	for _, q := range []string{"masks", "ventilators", "vaccine"} {
		page, err := e.SearchAllContext(context.Background(), q, 1)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if page.Total == 0 {
			t.Fatalf("query %q found nothing in 200 generated pubs", q)
		}
		// scores must be non-increasing
		for i := 1; i < len(page.Results); i++ {
			if page.Results[i].Score > page.Results[i-1].Score {
				t.Fatalf("ranking not sorted for %q", q)
			}
		}
	}
}

func TestScoreDocExplainConsistent(t *testing.T) {
	e := testEngine(t)
	d, err := e.coll.Get("p1")
	if err != nil {
		t.Fatal(err)
	}
	terms := textproc.ParseQuery("masks transmission")
	ex := e.newRanker(terms, nil).score("p1", d)
	sum := ex.TFIDF + ex.Matches + ex.Proximity + ex.Coverage + ex.Recency
	if diff := ex.Total - sum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("explain does not sum: %+v", ex)
	}
	if ex.Total <= 0 {
		t.Fatalf("score = %v", ex.Total)
	}
}

func TestSynonymRecallAndDiscount(t *testing.T) {
	s := docstore.Open()
	c := s.Collection("pubs")
	c.Insert(pub("direct", "t", "Ventilator allocation in intensive care.", ""))
	c.Insert(pub("synonym", "t", "Respirator allocation in intensive care.", ""))
	c.Insert(pub("neither", "t", "Oxygen therapy outcomes.", ""))
	e := NewEngine(c)
	page, err := e.SearchAllContext(context.Background(), "ventilators", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 2 {
		t.Fatalf("synonym recall: %d hits (%+v)", page.Total, page.Results)
	}
	// the literal match must outrank the synonym match
	if page.Results[0].DocID != "direct" {
		t.Fatalf("ranking: %+v", page.Results)
	}
	if page.Results[1].DocID != "synonym" {
		t.Fatalf("synonym doc missing: %+v", page.Results)
	}
	if page.Results[1].Score <= 0 {
		t.Fatal("synonym match scored zero")
	}
}

func TestSynonymVaccineImmunization(t *testing.T) {
	s := docstore.Open()
	c := s.Collection("pubs")
	c.Insert(pub("imm", "Immunization outcomes", "Mass immunization programmes.", ""))
	e := NewEngine(c)
	page, err := e.SearchAllContext(context.Background(), "vaccine", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 {
		t.Fatalf("vaccine→immunization synonym failed: %+v", page)
	}
}

// TestPhraseTermSynonymRecall is the regression test for the verify
// predicate: when a quoted phrase forces candidate re-verification, a
// document that matches a bare term only through the synonym table
// (vaccine → immunization) must stay in the result set.
func TestPhraseTermSynonymRecall(t *testing.T) {
	s := docstore.Open()
	c := s.Collection("pubs")
	c.Insert(pub("syn",
		"Immunization outcomes",
		"Mass immunization programmes and the spike protein response.", ""))
	c.Insert(pub("lit",
		"Vaccine efficacy",
		"The vaccine targets the spike protein.", ""))
	e := NewEngine(c)

	page, err := e.SearchAllContext(context.Background(), `vaccine "spike protein"`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 2 {
		t.Fatalf("phrase+term dropped synonym match: %d hits (%+v)", page.Total, page.Results)
	}

	// the field engine applies the predicate per field: a synonym-only
	// title must satisfy its condition when the abstract carries a phrase
	page, err = e.SearchFieldsContext(context.Background(), FieldQuery{Title: "vaccine", Abstract: `"spike protein"`}, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, r := range page.Results {
		found[r.DocID] = true
	}
	if !found["syn"] || !found["lit"] {
		t.Fatalf("field engine lost synonym recall: %+v", page.Results)
	}

	// NoSynonyms restores literal-only verification
	e.SetRankOptions(RankOptions{NoSynonyms: true})
	page, err = e.SearchFieldsContext(context.Background(), FieldQuery{Title: "vaccine", Abstract: `"spike protein"`}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || page.Results[0].DocID != "lit" {
		t.Fatalf("NoSynonyms not honored by verify predicate: %+v", page.Results)
	}
}

// TestSnippetUTF8 pins the rune-boundary alignment of snippet windows:
// when the context radius lands mid-rune inside Greek or CJK text, the
// excerpt must stay valid UTF-8 and close to the configured radius (the
// old ASCII-only boundary check walked past entire non-Latin runs).
func TestSnippetUTF8(t *testing.T) {
	terms := textproc.ParseQuery("masks")
	text := strings.Repeat("α", 100) + " masks " + strings.Repeat("汉", 50)
	sn, ok := makeSnippet(FieldAbstract, text, textproc.CompileTerms(terms, false))
	if !ok {
		t.Fatal("no snippet")
	}
	if !utf8.ValidString(sn.Text) {
		t.Fatalf("snippet is not valid UTF-8: %q", sn.Text)
	}
	// window stays near 2·radius — a few bytes of slack for rune alignment
	// and the ellipses, not hundreds for a run of non-ASCII text
	if max := 2*snippetRadius + len("masks") + 16; len(sn.Text) > max {
		t.Fatalf("snippet ballooned to %d bytes (max %d): %q", len(sn.Text), max, sn.Text)
	}
	if len(sn.Highlights) == 0 {
		t.Fatal("no highlights")
	}
	for _, h := range sn.Highlights {
		if got := sn.Text[h[0]:h[1]]; got != "masks" {
			t.Fatalf("highlight = %q", got)
		}
	}

	// match at the very start of CJK-only text: both edges must align
	text2 := "masks " + strings.Repeat("病", 80)
	sn2, ok := makeSnippet(FieldAbstract, text2, textproc.CompileTerms(terms, false))
	if !ok {
		t.Fatal("no snippet for cjk text")
	}
	if !utf8.ValidString(sn2.Text) {
		t.Fatalf("cjk snippet invalid: %q", sn2.Text)
	}
}

// TestPaginateNumPagesAtLeastOne: an empty result set is one empty page,
// never zero pages — UIs divide by NumPages.
func TestPaginateNumPagesAtLeastOne(t *testing.T) {
	e := testEngine(t)
	page, err := e.SearchAllContext(context.Background(), "xylophone", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 0 || page.NumPages != 1 {
		t.Fatalf("zero-hit page = %+v", page)
	}
	// page 0 and page 1 are the same request (and the same cache entry)
	p0, err := e.SearchAllContext(context.Background(), "masks", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p0.PageNum != 1 {
		t.Fatalf("page 0 not clamped: %+v", p0)
	}
}

func TestTableCellMatches(t *testing.T) {
	e := testEngine(t)
	ms, err := e.TableCellMatchesContext(context.Background(), "p2", "fever")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("matches = %+v", ms)
	}
	m := ms[0]
	if m.CaptionMatched {
		t.Fatal("caption should not match 'fever'... it doesn't contain it")
	}
	// "Fever %" is the header cell at (0, 2)
	found := false
	for _, c := range m.Cells {
		if c == [2]int{0, 2} {
			found = true
		}
	}
	if !found {
		t.Fatalf("cells = %v", m.Cells)
	}
	// caption match
	ms, err = e.TableCellMatchesContext(context.Background(), "p3", "regions")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || !ms[0].CaptionMatched {
		t.Fatalf("caption match: %+v", ms)
	}
	// no match
	ms, err = e.TableCellMatchesContext(context.Background(), "p2", "zebra")
	if err != nil || len(ms) != 0 {
		t.Fatalf("no-match: %+v %v", ms, err)
	}
	// missing doc
	if _, err := e.TableCellMatchesContext(context.Background(), "nope", "fever"); err == nil {
		t.Fatal("missing doc should error")
	}
	// empty query
	if _, err := e.TableCellMatchesContext(context.Background(), "p2", ""); err == nil {
		t.Fatal("empty query should error")
	}
}

func TestConcurrentSearchAndIngest(t *testing.T) {
	s := docstore.Open(docstore.WithShards(4))
	c := s.Collection("pubs")
	e := NewEngine(c)
	for i := 0; i < 50; i++ {
		if _, err := e.AddDocument(pub("", "masks study", "about masks and vaccines", "")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := e.AddDocument(pub("", "vaccines trial", "vaccination outcomes", "")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := e.SearchAllContext(context.Background(), "masks", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SearchTablesContext(context.Background(), "vaccine", 1); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	page, err := e.SearchAllContext(context.Background(), "vaccines", 1)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total < 50 {
		t.Fatalf("total = %d", page.Total)
	}
}
