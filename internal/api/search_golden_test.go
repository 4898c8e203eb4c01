package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/url"
	"testing"
)

var updateSearchGolden = flag.Bool("update-search-golden", false,
	"rewrite testdata/search_golden.json from the responses this build gives")

const searchGoldenFile = "testdata/search_golden.json"

// searchGolden is one recorded /api/v1/search body: its hash, plus the
// fields a reader needs to see what moved when the hash does.
type searchGolden struct {
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
	Total  int    `json:"total"`
}

// TestSearchResponsesGolden pins /api/v1/search byte for byte on the
// benchmark corpus: the four search_cold query shapes of the repo
// benchmark (three terms over every field, a quoted phrase plus a term,
// the tables engine, the fields engine) at pages 1, 2 and last. Every
// path is requested twice, so the body a miss computes and the body a
// cache hit serves must both match the recording.
func TestSearchResponsesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the 500-publication corpus")
	}
	checkSearchGolden(t, benchServer(t), *updateSearchGolden)
}

// checkSearchGolden replays the search recording against s, or
// rewrites it from s when update is set.
func checkSearchGolden(t *testing.T, s *Server, update bool) {
	t.Helper()
	got := map[string]searchGolden{}
	record := func(name string, v url.Values) int {
		path := "/api/v1/search?" + v.Encode()
		var first []byte
		for i := 0; i < 2; i++ {
			rec, _ := get(t, s, path)
			if rec.Code != 200 {
				t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
			}
			if i == 0 {
				first = rec.Body.Bytes()
			} else if rec.Body.String() != string(first) {
				t.Fatalf("%s: the repeated request answered other bytes:\n miss %s\n hit  %s", name, first, rec.Body.Bytes())
			}
		}
		var pg struct{ Total, NumPages int }
		if err := json.Unmarshal(first, &pg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(first)
		got[name] = searchGolden{hex.EncodeToString(sum[:]), len(first), pg.Total}
		return pg.NumPages
	}

	shapes := []struct {
		name   string
		params url.Values
	}{
		{"multi", url.Values{"engine": {"all"}, "q": {"vaccine masks fever"}}},
		{"phrase", url.Values{"engine": {"all"}, "q": {`"spike protein" variant`}}},
		{"tables", url.Values{"engine": {"tables"}, "q": {"efficacy dose antibody"}}},
		{"fields", url.Values{"engine": {"fields"}, "title": {"vaccine"}, "abstract": {"efficacy dose"}}},
	}
	for _, sh := range shapes {
		at := func(page int) url.Values {
			v := url.Values{"page": {fmt.Sprint(page)}}
			for k, vs := range sh.params {
				v[k] = vs
			}
			return v
		}
		last := record(sh.name+"/page1", at(1))
		if last < 3 {
			t.Fatalf("%s: %d pages; the case needs pages 1, 2 and a distinct last", sh.name, last)
		}
		record(sh.name+"/page2", at(2))
		record(sh.name+"/last", at(last))
	}

	checkGolden(t, searchGoldenFile, update, got)
}
