package search

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
)

// oracleDocs is a small corpus with everything the scorer branches on:
// generated publications (tables, figure captions, every field), docs
// that hold only synonyms of likely query terms, docs the phrase queries
// occur in, and docs that hold only the phrases' words.
func oracleDocs() []jsondoc.Doc {
	var out []jsondoc.Doc
	for _, p := range cord19.NewGenerator(7).Corpus(90) {
		out = append(out, p.Doc())
	}
	for i := 0; i < 8; i++ {
		out = append(out, pub(fmt.Sprintf("syn%02d", i),
			"Inoculation schedules in pediatric cohorts",
			"Coronavirus immunization outcomes after inoculation.",
			"Body text about sars-cov-2 and immunization drives."))
	}
	for i := 0; i < 12; i++ {
		out = append(out, pub(fmt.Sprintf("phr%02d", i),
			fmt.Sprintf("Vaccine trial: intensive care outcomes of the cohort %d", i),
			"Viral load in the intensive care unit of the hospital.",
			"Body text about masks and the viral load of the patients in intensive care.",
			table("Table 1: Fever by vaccine dose", []string{"Vaccine", "Dose", "Fever"}, []string{"A", "2", "8.5"})))
	}
	// the phrases' words apart, reversed, and as a substring across tokens
	for i := 0; i < 6; i++ {
		out = append(out, pub(fmt.Sprintf("sct%02d", i),
			"Masks and vaccine care in intensive settings",
			"Viral antigen load among patients; the load of viral assays.",
			"Antiviral loading doses."))
	}
	return out
}

// oracleCorpora builds the same documents into every index shape a
// cursor reads from.
var oracleCorpora = []struct {
	name  string
	build func(t *testing.T, e *Engine, docs []jsondoc.Doc)
}{
	{"memtable only", func(t *testing.T, e *Engine, docs []jsondoc.Doc) {
		e.AddDocuments(docs)
	}},
	{"sealed", func(t *testing.T, e *Engine, docs []jsondoc.Doc) {
		e.AddDocuments(docs)
		e.Index().Seal()
	}},
	{"three segments and a memtable", func(t *testing.T, e *Engine, docs []jsondoc.Doc) {
		for i := 0; i < 4; i++ {
			e.AddDocuments(docs[i*len(docs)/4 : (i+1)*len(docs)/4])
			if i < 3 {
				e.Index().Seal()
			}
		}
		if st := e.Index().Stats(); st.Segments != 3 || st.MemDocs == 0 {
			t.Fatalf("index shape: %+v", st)
		}
	}},
	{"tombstoned", func(t *testing.T, e *Engine, docs []jsondoc.Doc) {
		e.AddDocuments(docs)
		e.Index().Seal()
		for i := 0; i < len(docs); i += 4 {
			if err := e.RemoveDocument(docs[i]["_id"].(string)); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"removed then re-added", func(t *testing.T, e *Engine, docs []jsondoc.Doc) {
		e.AddDocuments(docs)
		e.Index().Seal()
		for i := 0; i < len(docs); i += 3 {
			id := docs[i]["_id"].(string)
			if err := e.RemoveDocument(id); err != nil {
				t.Fatal(err)
			}
			if _, err := e.AddDocument(pub(id, "Masks and vaccine dose", "Fever after the vaccine.", "Transmission of fever.")); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"re-added while sealed", func(t *testing.T, e *Engine, docs []jsondoc.Doc) {
		// straight into the index (the store refuses a duplicate id): the
		// document's postings now span a segment and the memtable
		e.AddDocuments(docs)
		e.Index().Seal()
		for i := 0; i < len(docs); i += 3 {
			id := docs[i]["_id"].(string)
			e.Index().Add(id, FieldBody, "vaccine fever masks transmission vaccine")
			e.Index().Add(id, FieldTitle, "dose outcomes")
		}
		e.Index().Seal()
		for i := 0; i < len(docs); i += 6 {
			e.Index().Add(docs[i]["_id"].(string), FieldBody, "masks vaccine")
		}
	}},
}

var oracleOptions = []RankOptions{
	{},
	{NoSynonyms: true},
	{FlatFields: true},
	{NoIDF: true},
	{NoProximity: true, NoCoverage: true},
	{NoSynonyms: true, FlatFields: true, NoIDF: true, NoProximity: true, NoCoverage: true},
}

// TestRefScoreBitIdentical holds the cursor-fed scorer to refScore —
// the scorer as it stood when every feature gathered its own positions —
// bit for bit in every RankExplain field: over every index shape, every
// ablation, every engine's field restriction, with the document in hand
// and without it.
func TestRefScoreBitIdentical(t *testing.T) {
	queries := []string{
		"vaccine", "masks transmission", "fever dose outcomes", "immunization pediatric",
		"vaccine immunization", // each names the other as a synonym
		`vaccine "viral load"`, `"intensive care" masks`,
	}
	rankFields := []map[string]bool{
		nil,
		{FieldTableCaption: true, FieldTableCell: true},
		{FieldTitle: true, FieldAbstract: true, FieldTableCaption: true},
	}
	docs := oracleDocs()
	for _, corpus := range oracleCorpora {
		c := docstore.Open(docstore.WithShards(3)).Collection("pubs")
		e := NewEngine(c)
		corpus.build(t, e, docs)
		e.Index().Wait()
		g := newRefGathers(e.Index())
		ids := make([]string, 0, len(docs)+1)
		stored := map[string]jsondoc.Doc{}
		for _, d := range docs {
			id := d["_id"].(string)
			ids = append(ids, id)
			if got, err := c.Get(id); err == nil {
				stored[id] = got
			}
		}
		ids = append(ids, "no-such-doc")
		compared := 0
		for _, opts := range oracleOptions {
			e.SetRankOptions(opts)
			for _, q := range queries {
				terms, err := queryOrError(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, fields := range rankFields {
					r := e.newRanker(terms, fields)
					// descending ids: every seek but the first goes backwards
					for i := len(ids) - 1; i >= 0; i-- {
						for _, d := range []jsondoc.Doc{nil, stored[ids[i]]} {
							if d == nil && !r.cur.Seek(ids[i]) {
								continue // never a candidate: the cursor does not know its static score
							}
							got, want := r.score(ids[i], d), refScore(g, opts, ids[i], d, terms, fields)
							if !sameBits(got, want) {
								t.Fatalf("%s, opts %+v, q=%q, fields %v, doc %s (in hand: %v):\ncursor-fed %+v\nrefScore   %+v",
									corpus.name, opts, q, fields, ids[i], d != nil, got, want)
							}
							if want.TFIDF > 0 {
								compared++
							}
						}
					}
				}
			}
		}
		if compared < 1000 {
			t.Fatalf("%s: only %d non-trivial scores compared", corpus.name, compared)
		}
	}
}

func sameBits(a, b RankExplain) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if math.Float64bits(va.Field(i).Float()) != math.Float64bits(vb.Field(i).Float()) {
			return false
		}
	}
	return true
}

// TestPruningBoundHoldsUnderLiveWriter: the max-score bounds are built
// when the plan is, the candidates scored afterwards; a writer that
// lands in between moves N and df. Both sides must read the IDF the
// cursor captured — were the scorer to re-read it, the new documents
// (none holds a query term, so every IDF rises) would lift true scores
// over their own "upper bounds" and page-worthy documents would be
// pruned. The page must be the oracle's over the plan's snapshot, and
// every score the one refScore computes from the pre-write statistics.
func TestPruningBoundHoldsUnderLiveWriter(t *testing.T) {
	c := docstore.Open(docstore.WithShards(2)).Collection("pubs")
	// Three tiers, strongest ids first: the heap fills with page-worthy
	// documents and the bound then has to turn the rest away.
	for i := 0; i < 30; i++ {
		c.Insert(pub(fmt.Sprintf("a-strong%03d", i), fmt.Sprintf("Masks zebra policy %d", i), "masks for every zebra", "body text"))
	}
	for i := 0; i < 30; i++ {
		c.Insert(pub(fmt.Sprintf("b-mid%03d", i), fmt.Sprintf("Zebra survey %d", i), "other abstract", "body text"))
	}
	for i := 0; i < 60; i++ {
		c.Insert(pub(fmt.Sprintf("c-weak%03d", i), fmt.Sprintf("Unrelated study %d", i), "other abstract", "zebra sightings"))
	}
	e, reg := parityEngine(t, c)
	terms, err := queryOrError("masks zebra")
	if err != nil {
		t.Fatal(err)
	}

	q := e.allPlan(terms) // the snapshot: candidates, IDFs, bounds
	g := newRefGathers(e.Index())
	idf0 := map[string]float64{}
	for _, name := range q.rank.names {
		idf0[name] = refIDF(e.Index(), name)
		g.positions(name, "") // memoize Lookup before the writer moves it
	}
	g.idf = func(term string) float64 { return idf0[term] }

	var batch []jsondoc.Doc
	for i := 0; i < 600; i++ {
		batch = append(batch, pub(fmt.Sprintf("d-new%03d", i), "Quarantine logistics", "supply chains", "warehouse notes"))
	}
	for _, a := range e.AddDocuments(batch) {
		if a.Err != nil {
			t.Fatal(a.Err)
		}
	}
	if live := refIDF(e.Index(), "zebra"); live <= idf0["zebra"]*1.5 {
		t.Fatalf("the writer did not move IDF: %v → %v", idf0["zebra"], live)
	}

	got, err := e.runQuery(context.Background(), q, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	diffPages(t, "page over the plan's snapshot", got, e.refRank(q, 1))
	if got.Total != 120 || len(got.Results) != PerPage {
		t.Fatalf("total %d, %d results", got.Total, len(got.Results))
	}
	for _, r := range got.Results {
		if want := refScore(g, RankOptions{}, r.DocID, nil, terms, nil).Total; math.Float64bits(r.Score) != math.Float64bits(want) {
			t.Fatalf("%s scored %v, pre-write statistics say %v", r.DocID, r.Score, want)
		}
		if r.DocID[0] != 'a' {
			t.Fatalf("%s on page 1: a full-coverage title match was pruned", r.DocID)
		}
	}
	if reg.Counter("topk_pruned_docs").Value() == 0 {
		t.Fatal("the bound never pruned: the test exercises nothing")
	}
}

// TestRepeatedQueryWordIsOneTerm: saying a word (or a phrase) twice is
// saying it once — same page, same cache entry — in every engine. It
// used to double the word's TF-IDF and match count and make it its own
// proximity partner at distance 0, the feature's maximum.
func TestRepeatedQueryWordIsOneTerm(t *testing.T) {
	c := docstore.Open(docstore.WithShards(2)).Collection("pubs")
	for _, d := range oracleDocs() {
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(c)
	hits := func() int64 { return e.CacheStats().Hits }
	same := func(label string, once, twice func() (Page, error)) {
		t.Helper()
		before := hits()
		a, err1 := once()
		b, err2 := twice()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", label, err1, err2)
		}
		if a.Total == 0 {
			t.Fatalf("%s matched nothing", label)
		}
		diffPages(t, label, b, a)
		if hits() != before+1 {
			t.Fatalf("%s: the repeated form missed the cache entry of the plain one", label)
		}
	}
	for _, q := range [][2]string{
		{"vaccine masks", "vaccine masks vaccine"},
		{"fever dose", "fever dose fever dose"},
		{`"viral load" masks`, `"viral load" masks "Viral Load" masks`},
	} {
		same("all "+q[1], func() (Page, error) { return e.SearchAllContext(context.Background(), q[0], 1) }, func() (Page, error) { return e.SearchAllContext(context.Background(), q[1], 1) })
		same("tables "+q[1], func() (Page, error) { return e.SearchTablesContext(context.Background(), q[0], 1) }, func() (Page, error) { return e.SearchTablesContext(context.Background(), q[1], 1) })
		same("fields "+q[1],
			func() (Page, error) { return e.SearchFieldsContext(context.Background(), FieldQuery{Title: q[0]}, 1) },
			func() (Page, error) { return e.SearchFieldsContext(context.Background(), FieldQuery{Title: q[1]}, 1) })
	}
	// the same word asked of two fields is still one ranking term
	pg, err := e.SearchFieldsContext(context.Background(), FieldQuery{Title: "vaccine", Abstract: "vaccine"}, 1)
	if err != nil || pg.Total == 0 {
		t.Fatalf("title+abstract: %v, total %d", err, pg.Total)
	}
	terms, _ := queryOrError("vaccine")
	r := e.newRanker(terms, map[string]bool{FieldTitle: true, FieldAbstract: true, FieldTableCaption: true})
	if want := r.score(pg.Results[0].DocID, nil).Total; pg.Results[0].Score != want {
		t.Fatalf("vaccine in two fields scored %v, once %v", pg.Results[0].Score, want)
	}
}

// TestCandidateReadReasons: every query that reads its candidates'
// documents says why, once, and the reasons sum to the total.
func TestCandidateReadReasons(t *testing.T) {
	_, c, _ := partialFixture(t)
	h := &hookDocs{Docs: c, between: func() {
		if err := c.Delete("p00"); err != nil { // a winner vanishes between ranking and fetch
			t.Error(err)
		}
	}}
	e, _ := parityEngine(t, h)
	want := map[string]int64{}
	var readDocs int64
	check := func(reason, q string) {
		t.Helper()
		if _, err := e.SearchAllContext(context.Background(), q, 1); err != nil {
			t.Fatal(err)
		}
		if reason != "" {
			want["candidate_read."+reason]++
			want["candidate_read_queries"]++
		}
		got := e.ScoringStats()
		delete(got, "topk_pruned_docs")
		if docs := got["candidate_read_docs"]; (docs > readDocs) != (reason != "") {
			t.Fatalf("after %q (%s): candidate_read_docs %d → %d", q, reason, readDocs, docs)
		}
		readDocs = got["candidate_read_docs"]
		delete(got, "candidate_read_docs")
		for k, v := range got {
			if v != want[k] {
				t.Fatalf("after %q: %s = %d, want %d (all: %v)", q, k, v, want[k], got)
			}
		}
	}
	check("retry", "covid")
	e.Index().Remove("p00") // the hook deleted it behind the engine's back
	check("", "covid")
	check("phrase", `"standard covid assay"`)
	check("", `"covid standard" assay`) // nowhere adjacent: nothing to read, nothing counted
	check("scan", `"with the"`)
	dark, _ := darkenShard(c)
	for i := 0; c.AllShardsServing(); i++ {
		if i == 100 {
			t.Fatal("breakers never opened on the dark shard")
		}
		for j := 1; j < 40; j++ {
			if id := fmt.Sprintf("p%02d", j); c.ShardOfID(id) == dark {
				c.Get(id)
			}
		}
	}
	check("dark_shard", "covid")
	check("phrase", `"standard covid assay"`) // the query's own reason comes first
}
