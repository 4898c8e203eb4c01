package search

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"covidkg/internal/cord19"
	"covidkg/internal/docstore"
	"covidkg/internal/failpoint"
	"covidkg/internal/index"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
	"covidkg/internal/textproc"
)

// TestAddDocumentIndexesDespiteReadbackFailure pins the store/index
// divergence fix: AddDocument used to insert, then re-read the stored
// copy, then index the readback. A shard dying between the two calls
// made AddDocument fail AFTER the write landed — document stored,
// never indexed, permanently invisible to search. The fixed path
// indexes the insert result and never reads back.
func TestAddDocumentIndexesDespiteReadbackFailure(t *testing.T) {
	reg := failpoint.New(1)
	s := docstore.Open(docstore.WithShards(1), docstore.WithFailpoints(reg))
	c := s.Collection("pubs")
	e := NewEngine(c)
	target := docstore.ShardTarget(0)

	// Measure how many failpoint checks one insert performs, so the
	// outage can be scheduled to start exactly after the write lands.
	reg.Set(target, failpoint.Rule{})
	if _, err := e.AddDocument(pub("", "Warmup", "warmup text", "")); err != nil {
		t.Fatal(err)
	}
	insertChecks := reg.Checks(target)
	if insertChecks == 0 {
		t.Fatal("insert performed no failpoint checks; cannot schedule the outage")
	}

	reg.Set(target, failpoint.Rule{Down: true, SkipChecks: insertChecks})
	id, err := e.AddDocument(pub("", "Zymurgy advances", "A zymurgy survey.", ""))
	if err != nil {
		t.Fatalf("AddDocument failed when the shard died after the write: %v", err)
	}
	// The readback window is real: the store is unreachable right now.
	if _, err := c.Get(id); err == nil {
		t.Fatal("expected store reads to fail while the shard is down")
	}
	stem := textproc.Stem("zymurgy")
	if df := e.Index().DocFreq(stem); df != 1 {
		t.Fatalf("DocFreq(%q) = %d, want 1: stored document was never indexed", stem, df)
	}

	reg.ClearAll()
	pg, err := e.SearchAll("zymurgy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Results) != 1 || pg.Results[0].DocID != id {
		t.Fatalf("search after recovery = %+v, want exactly doc %s", pg.Results, id)
	}
}

// TestAddDocumentRejectsNonStringID pins the _id validation fix: a
// non-string _id used to be stored (the store assigned a fresh id over
// it) while indexDoc silently skipped the doc. Now it is rejected up
// front with ErrBadDoc, which wraps ErrBadQuery so the API answers 400.
func TestAddDocumentRejectsNonStringID(t *testing.T) {
	e := testEngine(t)
	countDocs := func() int {
		n := 0
		e.coll.Scan(func(jsondoc.Doc) bool { n++; return true })
		return n
	}
	before, idxBefore := countDocs(), e.Index().DocCount()
	_, err := e.AddDocument(jsondoc.Doc{
		"_id": 123, "title": "Xylotomy primer", "abstract": "", "body_text": "",
	})
	if err == nil {
		t.Fatal("non-string _id accepted")
	}
	if !errors.Is(err, ErrBadDoc) || !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v, want ErrBadDoc wrapping ErrBadQuery", err)
	}
	if n := countDocs(); n != before {
		t.Fatalf("rejected doc was stored: %d docs, had %d", n, before)
	}
	if n := e.Index().DocCount(); n != idxBefore {
		t.Fatalf("rejected doc was indexed: %d docs, had %d", n, idxBefore)
	}
}

// TestPagesIdenticalUnderLiveWriter is the snapshot-isolation property
// at the page level: readers query while a writer streams documents in
// (driving memtable seals and background merges), and when the dust
// settles every page must be byte-identical to one computed by a fresh
// flat engine over the same final corpus. It also pins the term-scoped
// cache contract: a query whose terms the writer never touches stays
// warm across writes, while overlapping queries go stale by term.
func TestPagesIdenticalUnderLiveWriter(t *testing.T) {
	words := []string{"mask", "vaccine", "fever", "dose", "trial", "cohort", "antibody", "serum"}
	sentence := func(rng *rand.Rand, k int) string {
		out := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				out += " "
			}
			out += words[rng.Intn(len(words))]
		}
		return out
	}
	mkDoc := func(i int, rng *rand.Rand, extra string) jsondoc.Doc {
		return pub(fmt.Sprintf("w%04d", i),
			sentence(rng, 4)+" "+extra,
			sentence(rng, 12),
			sentence(rng, 25))
	}

	s := docstore.Open(docstore.WithShards(2))
	c := s.Collection("pubs")
	rng := rand.New(rand.NewSource(11))
	var mu sync.Mutex
	var docs []jsondoc.Doc
	for i := 0; i < 80; i++ {
		// "zoonosis" lives only in the preloaded docs; the writer never
		// touches its term, so its cached page must stay warm throughout.
		d := mkDoc(i, rng, "zoonosis")
		docs = append(docs, d)
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(c)
	e.Index().SetSealThreshold(16)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(7))
		for i := 80; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d := mkDoc(i, wrng, "")
			if _, err := e.AddDocument(d); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			mu.Lock()
			docs = append(docs, d)
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()

	queries := []string{"mask", "vaccine fever", "\"dose trial\"", "zoonosis"}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, q := range queries {
			pg, err := e.SearchAll(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for i, r := range pg.Results {
				if seen[r.DocID] {
					t.Fatalf("q=%q: duplicate doc %s on page", q, r.DocID)
				}
				seen[r.DocID] = true
				if i > 0 && pg.Results[i-1].Score < r.Score {
					t.Fatalf("q=%q: scores out of order", q)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	e.Index().Wait()

	st := e.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("cache never warm under live writer: %+v", st)
	}
	if st.StaleTerm == 0 {
		t.Fatalf("writer overlapped query terms but no term-scoped staling: %+v", st)
	}
	if sealed := e.Index().Stats(); sealed.Seals == 0 {
		t.Fatalf("writer never drove a seal: %+v", sealed)
	}

	// Fresh flat engine over the same final corpus: every page of every
	// query must be byte-identical to the churned segmented engine's.
	// Flush the cache first — a warm page legitimately carries pre-write
	// corpus statistics (that is the documented staleness trade), and
	// the identity contract is about freshly computed pages.
	e.SetCacheLimits(defaultCacheEntries, defaultCacheBytes)
	s2 := docstore.Open(docstore.WithShards(2))
	c2 := s2.Collection("pubs")
	mu.Lock()
	for _, d := range docs {
		if _, err := c2.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	mu.Unlock()
	e2 := NewEngine(c2)
	for _, q := range queries {
		for page := 1; page <= 3; page++ {
			got, err := e.SearchAll(q, page)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e2.SearchAll(q, page)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q=%q page %d diverged after churn:\nsegmented %+v\nflat      %+v", q, page, got, want)
			}
		}
	}
}

// TestMemtableHeapPerDoc bounds what one CORD-19-shaped document retains
// in the index memtable. With a hash table per (term, doc) pair it was
// 64 KB; as per-field position runs in a term → doc map, about 29 KB; in
// one record per term, with each document's runs and positions carved
// from its analysis, about 17 KB. Only the index is live between the two
// measurements — each document is generated, indexed and dropped.
func TestMemtableHeapPerDoc(t *testing.T) {
	const docs = 2000 // below index.DefaultSealDocs: all of it stays in the memtable
	e := &Engine{idx: index.New(), met: metrics.NewRegistry()}
	e.idx.SetFieldWeights(fieldWeights)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	g := cord19.NewGenerator(7)
	before := heap()
	for i := 0; i < docs; i++ {
		d := g.Publication().Doc()
		e.idx.AddDoc(d.GetString("_id"), index.Analyze(docTexts(d)), recencyOf(d))
	}
	perDoc := float64(heap()-before) / docs / 1024
	runtime.KeepAlive(e)
	if st := e.idx.Stats(); st.MemDocs != docs || st.Segments != 0 {
		t.Fatalf("index sealed during the measurement: %+v", st)
	}
	t.Logf("memtable retains %.1f KB per document", perDoc)
	if perDoc > 24 {
		t.Fatalf("memtable retains %.1f KB per document, want <= 24", perDoc)
	}
}

// TestAddDocumentsAlignedUnderConcurrency: a batch's inserts run
// concurrently, yet the result stays aligned with the input, a bad
// document fails alone, and of two documents sharing an _id inside one
// batch the first always wins. Run with -count=20: the outcome must not
// depend on how the inserts are scheduled.
func TestAddDocumentsAlignedUnderConcurrency(t *testing.T) {
	e := NewEngine(docstore.Open(docstore.WithShards(4)).Collection("pubs"))
	if _, err := e.AddDocument(pub("stored", "Already here", "an earlier arrival", "")); err != nil {
		t.Fatal(err)
	}

	const n = 3 * insertConcurrency
	batch := make([]jsondoc.Doc, n)
	want := make([]error, n) // nil: must be stored
	for i := range batch {
		batch[i] = pub(fmt.Sprintf("b%03d", i), fmt.Sprintf("Batch document %d", i), fmt.Sprintf("quokka%d habitat", i), "")
	}
	batch[5] = jsondoc.Doc{"_id": 42.0, "title": "Numeric id"}
	want[5] = ErrBadDoc
	batch[9] = pub("stored", "Duplicate of a stored id", "", "")
	want[9] = docstore.ErrDuplicateID
	batch[20] = pub("twin", "First twin", "firsttwin wins", "")
	batch[70] = pub("twin", "Second twin", "secondtwin loses", "")
	want[70] = docstore.ErrDuplicateID
	batch[33] = pub("", "No id at all", "idless wombat", "")

	got := e.AddDocuments(batch)
	if len(got) != n {
		t.Fatalf("%d results for %d documents", len(got), n)
	}
	for i, a := range got {
		switch {
		case want[i] != nil:
			if !errors.Is(a.Err, want[i]) || a.ID != "" || a.Doc != nil {
				t.Errorf("document %d: got (%q, %v), want error %v and nothing stored", i, a.ID, a.Err, want[i])
			}
		case a.Err != nil:
			t.Errorf("document %d: %v", i, a.Err)
		case i == 33:
			if a.ID == "" || a.Doc.GetString("_id") != a.ID {
				t.Errorf("id-less document: id %q, stored doc says %q", a.ID, a.Doc.GetString("_id"))
			}
		case a.ID != batch[i].GetString("_id") || a.Doc.GetString("title") != batch[i].GetString("title"):
			t.Errorf("document %d: result (%q, %q) belongs to another document", i, a.ID, a.Doc.GetString("title"))
		}
	}
	for term, wantDF := range map[string]int{"firsttwin": 1, "secondtwin": 0, "wombat": 1, "quokka7": 1, "quokka70": 0} {
		if df := e.Index().DocFreq(textproc.Stem(term)); df != wantDF {
			t.Errorf("DocFreq(%s) = %d, want %d", term, df, wantDF)
		}
	}
	if twin, err := e.coll.Get("twin"); err != nil || twin.GetString("title") != "First twin" {
		t.Errorf("stored twin = %v (err %v), want the first", twin.GetString("title"), err)
	}
	if stored, indexed := e.coll.Count(), e.Index().DocCount(); stored != 1+n-3 || indexed != stored {
		t.Errorf("%d stored, %d indexed, want %d of each", stored, indexed, 1+n-3)
	}
}
