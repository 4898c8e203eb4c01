package search

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"covidkg/internal/docstore"
	"covidkg/internal/textproc"
)

// pageThroughCache runs pg as the computed page of a fresh query on e,
// twice: the first call misses and computes, the second hits if the
// body was cached. It returns both pages a library caller saw.
func pageThroughCache(t testing.TB, e *Engine, key string, pg Page) (miss, hit Page) {
	t.Helper()
	p := prepared{
		key:     cacheKey{engine: "all", query: key, page: 1},
		terms:   []textproc.QueryTerm{{Text: "x"}},
		compute: func(context.Context) (Page, error) { return pg, nil },
	}
	var err error
	if miss, err = e.searchPage(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if hit, err = e.searchPage(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	return miss, hit
}

// encoderBytes is what the API wrote for pg before cache entries were
// bodies: one json.Encoder.Encode.
func encoderBytes(t testing.TB, pg Page) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(pg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomPage draws a page over the inputs a cache entry must survive:
// Greek and CJK text, characters encoding/json escapes (<>&, U+2028),
// nil versus empty Authors, Snippets and Highlights, and scores on both
// sides of the bounds where encoding/json switches from plain decimals
// to exponent notation (1e-6 and 1e21).
func randomPage(rng *rand.Rand) Page {
	words := []string{"vaccine", "Αποτελεσματικότητα", "εμβολίου", "新冠病毒", "疫苗接种",
		"<b>", "a&b", "x>y", "\u2028", "\u2029", `"quoted"`, `back\slash`, "\t", "émigré", "🦠", ""}
	text := func() string {
		n := rng.Intn(5)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	scores := []float64{1e-7, math.Nextafter(1e-7, 0), math.Nextafter(1e-7, 1), 1e-6, math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 0, -0.5, 1.0 / 3, math.SmallestNonzeroFloat64, math.MaxFloat64}
	pg := Page{Total: rng.Intn(1000), PageNum: 1 + rng.Intn(9), PerPage: PerPage, NumPages: rng.Intn(100)}
	if rng.Intn(4) > 0 {
		pg.Results = make([]Result, rng.Intn(PerPage+1))
	}
	for i := range pg.Results {
		r := &pg.Results[i]
		r.DocID, r.Title, r.Journal = fmt.Sprintf("doc-%d", rng.Intn(1e6)), text(), text()
		r.Score = scores[rng.Intn(len(scores))]
		if rng.Intn(2) == 0 {
			r.Score = math.Nextafter(r.Score, 0)
		}
		switch rng.Intn(3) {
		case 1:
			r.Authors = []string{}
		case 2:
			r.Authors = []string{text(), text()}
		}
		switch rng.Intn(3) {
		case 1:
			r.Snippets = []Snippet{}
		case 2:
			for j := rng.Intn(3); j >= 0; j-- {
				sn := Snippet{Field: FieldAbstract, Text: text()}
				switch rng.Intn(3) {
				case 1:
					sn.Highlights = [][2]int{}
				case 2:
					sn.Highlights = [][2]int{{0, rng.Intn(9)}, {rng.Intn(9), 12}}
				}
				r.Snippets = append(r.Snippets, sn)
			}
		}
	}
	return pg
}

// TestCachedPageRoundTripProperty: over randomized pages, the page a
// library caller gets from a cache hit is reflect.DeepEqual to the page
// computed on the miss, and the cached body is the bytes the API wrote
// before bodies were cached.
func TestCachedPageRoundTripProperty(t *testing.T) {
	e := NewEngine(docstore.Open().Collection("pubs"))
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 2000; i++ {
		pg := randomPage(rng)
		key := fmt.Sprint(i)
		hits := e.CacheStats().Hits
		miss, hit := pageThroughCache(t, e, key, pg)
		if !reflect.DeepEqual(miss, pg) {
			t.Fatalf("page %d: the miss changed the page:\n got  %#v\n want %#v", i, miss, pg)
		}
		if e.CacheStats().Hits != hits+1 {
			t.Fatalf("page %d was not cached: %#v", i, pg)
		}
		if !reflect.DeepEqual(hit, pg) {
			t.Fatalf("page %d: the hit decoded another page:\n got  %#v\n want %#v", i, hit, pg)
		}
		body, ok := e.cache.Load().get(cacheKey{engine: "all", query: key, page: 1}, e.currentScope([]textproc.QueryTerm{{Text: "x"}}))
		if !ok || !bytes.Equal(body, encoderBytes(t, pg)) {
			t.Fatalf("page %d: cached body %q, want %q", i, body, encoderBytes(t, pg))
		}
	}
}

// TestNonUTF8PageServedUncached: a page whose title is not valid UTF-8
// would decode to another page (encoding/json writes U+FFFD), so it is
// served — with the bytes the API always wrote for it — but never
// cached, and a library caller still sees the raw title.
func TestNonUTF8PageServedUncached(t *testing.T) {
	e := testEngine(t)
	if _, err := e.AddDocument(pub("bad-utf8", "Masks \xff\xfe in wards", "Masks again.", "")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	entries := e.CacheStats().Entries
	pg, err := e.SearchAllContext(ctx, "masks", 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range pg.Results {
		found = found || r.Title == "Masks \xff\xfe in wards"
	}
	if !found {
		t.Fatalf("the non-UTF-8 title is not on the page: %+v", pg.Results)
	}
	want := encoderBytes(t, pg)
	for i := 0; i < 2; i++ {
		body, partial, err := e.SearchBody(ctx, "all", "masks", FieldQuery{}, 1)
		if err != nil || partial {
			t.Fatalf("SearchBody: partial=%v err=%v", partial, err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("served %q, want %q", body, want)
		}
	}
	again, err := e.SearchAllContext(ctx, "masks", 1)
	if err != nil || !reflect.DeepEqual(again, pg) {
		t.Fatalf("repeat library call: %v\n got  %+v\n want %+v", err, again, pg)
	}
	if st := e.CacheStats(); st.Entries != entries || st.Hits != 0 {
		t.Fatalf("non-UTF-8 page cached: %+v (entries before %d)", st, entries)
	}
}

// TestUnencodablePage: a page with a non-finite score is served to a
// library caller as computed, never cached, and SearchBody reports an
// error instead of an empty body.
func TestUnencodablePage(t *testing.T) {
	e := NewEngine(docstore.Open().Collection("pubs"))
	pg := Page{Results: []Result{{DocID: "d", Score: math.Inf(1)}}, Total: 1, PageNum: 1, PerPage: PerPage, NumPages: 1}
	miss, hit := pageThroughCache(t, e, "inf", pg)
	if !reflect.DeepEqual(miss, pg) || !reflect.DeepEqual(hit, pg) {
		t.Fatalf("got %+v and %+v, want %+v", miss, hit, pg)
	}
	if st := e.CacheStats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("unencodable page cached: %+v", st)
	}
	if _, err := encodePage(pg); err == nil {
		t.Fatal("a +Inf score encoded")
	}
}

// FuzzPageBodyRoundTrip: for arbitrary strings and score bit patterns,
// a page encodes exactly when its score is finite, its body is the bytes
// json.Encoder writes, roundTrips is exact (it accepts a page precisely
// when the body decodes back to a DeepEqual page), and a library caller
// gets the computed page from both the miss and the repeat call.
func FuzzPageBodyRoundTrip(f *testing.F) {
	f.Add("doc-1", "Masks and transmission", "A. Author", "masks <reduce> & U+2028 \u2028", math.Float64bits(0.5), 2)
	f.Add("δ", "新冠病毒疫苗", "", "", math.Float64bits(1e21), 0)
	f.Add("d", "Masks \xff\xfe", "\xc3", "\xed\xa0\x80", math.Float64bits(1e-7), -1)
	f.Add("", "", "", "", math.Float64bits(math.NaN()), 1)
	f.Add("x", "y", "z", "w", math.Float64bits(math.Inf(-1)), 3)
	f.Add("doc-2", "title", "", "", math.Float64bits(2), -2)
	e := NewEngine(docstore.Open().Collection("pubs"))
	n := 0
	f.Fuzz(func(t *testing.T, id, title, author, text string, scoreBits uint64, shape int) {
		pg := Page{Total: 1, PageNum: 1, PerPage: PerPage, NumPages: 1, Results: []Result{{
			DocID: id, Title: title, Journal: text, Score: math.Float64frombits(scoreBits),
		}}}
		r := &pg.Results[0]
		switch {
		case shape > 0:
			r.Authors = []string{author}
			r.Snippets = []Snippet{{Field: FieldAbstract, Text: text, Highlights: [][2]int{{0, shape}}}}
		case shape == 0:
			r.Authors, r.Snippets = []string{}, []Snippet{}
		case shape < -1: // omitempty drops an empty list: decodes as nil
			pg.MissingShards = []int{}
		}
		body, err := encodePage(pg)
		if finite := !math.IsNaN(r.Score) && !math.IsInf(r.Score, 0); (err == nil) != finite {
			t.Fatalf("score %v: encode error %v", r.Score, err)
		}
		if err == nil {
			if !bytes.Equal(body, encoderBytes(t, pg)) {
				t.Fatalf("body %q, json.Encoder writes %q", body, encoderBytes(t, pg))
			}
			back, err := decodePage(body)
			if err != nil {
				t.Fatal(err)
			}
			if same := reflect.DeepEqual(back, pg); same != roundTrips(pg) {
				t.Fatalf("roundTrips = %v, but the decoded page DeepEqual = %v:\n got  %#v\n want %#v",
					roundTrips(pg), same, back, pg)
			}
		}
		n++
		miss, hit := pageThroughCache(t, e, fmt.Sprint(n), pg)
		if !reflect.DeepEqual(miss, pg) || !reflect.DeepEqual(hit, pg) {
			t.Fatalf("library pages changed:\n miss %#v\n hit  %#v\n want %#v", miss, hit, pg)
		}
	})
}
