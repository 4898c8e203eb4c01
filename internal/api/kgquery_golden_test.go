package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"

	"covidkg/internal/core"
)

var updateKGGolden = flag.Bool("update-kg-golden", false,
	"rewrite testdata/kg_golden.json from the responses this build gives")

const kgGoldenFile = "testdata/kg_golden.json"

// kgGolden is one recorded response: its hash, plus the fields a
// reader needs to see what moved when the hash does.
type kgGolden struct {
	SHA256     string  `json:"sha256"`
	Bytes      int     `json:"bytes"`
	Total      float64 `json:"total"`
	Expansions float64 `json:"expansions"`
	Truncated  bool    `json:"truncated"`
}

// benchServer builds what cmd/covidkg-server boots for the repo
// benchmark, -pubs 500 -seed 42, through the same System.Build.
func benchServer(t *testing.T) *Server {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = 42
	sys := core.NewSystem(cfg)
	if _, err := sys.Build(core.BuildSpec{Pubs: 500, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	return NewServer(sys)
}

// TestKGResponsesGolden pins the KG read surface byte for byte: the six
// kg_browse templates of the repo benchmark at pages 1, 2 and last,
// /kg/hypotheses and the node resource must answer what the executor
// that materialised every matched path, and the node handler that read
// the live graph, answered (testdata recorded at commit 74f82b8).
func TestKGResponsesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the 500-publication corpus")
	}
	checkKGGolden(t, benchServer(t), *updateKGGolden)
}

// checkKGGolden replays the KG recording against s, or rewrites it from
// s when update is set.
func checkKGGolden(t *testing.T, s *Server, update bool) {
	t.Helper()
	got := map[string]kgGolden{}
	record := func(name, path, body string) map[string]any {
		call := func() (*httptest.ResponseRecorder, map[string]any) { return get(t, s, path) }
		if body != "" {
			call = func() (*httptest.ResponseRecorder, map[string]any) { return postJSON(t, s, path, body) }
		}
		rec, out := call()
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		total, _ := out["total"].(float64)
		exp, _ := out["expansions"].(float64)
		trunc, _ := out["truncated"].(bool)
		got[name] = kgGolden{hex.EncodeToString(sum[:]), rec.Body.Len(), total, exp, trunc}
		return out
	}

	templates := []struct{ name, text, params string }{
		{"fwd1", `(norm=$a)->()`, `{"a":"Vaccines"}`},
		{"fwd2", `(norm=$a)-{1,2}->()`, `{"a":"Vaccines"}`},
		{"fwd3", `(norm=$a)-{1,3}->()`, `{"a":"COVID-19"}`},
		{"reversed", `()-{1,2}->(norm=$a)`, `{"a":"mRNA vaccines"}`},
		{"label_scan", `(label~$a)->()`, `{"a":"vaccine"}`},
		{"source_source", `(source=$a)-{1,2}->(source=$b)`, `{"a":"seed","b":"fusion"}`},
	}
	for _, tc := range templates {
		body := func(page int) string {
			return fmt.Sprintf(`{"query":%q,"params":%s,"page":%d,"page_size":20}`, tc.text, tc.params, page)
		}
		first := record(tc.name+"/page1", "/api/v1/kg/query", body(1))
		record(tc.name+"/page2", "/api/v1/kg/query", body(2))
		record(tc.name+"/last", "/api/v1/kg/query", body(int(first["num_pages"].(float64))))
	}
	for name, body := range map[string]string{
		"hypotheses/siblings": `{"from":"mRNA vaccines","to":"Vector vaccines","max_hops":2}`,
		"hypotheses/limit3":   `{"from":"Symptoms","to":"fever","max_hops":6,"limit":3}`,
		"hypotheses/default":  `{"from":"Symptoms","to":"fever","max_hops":6}`,
		"hypotheses/none":     `{"from":"mRNA vaccines","to":"Vector vaccines","max_hops":1}`,
	} {
		record(name, "/api/v1/kg/hypotheses", body)
	}
	for name, path := range map[string]string{
		"nodes/root":          "/api/v1/kg/nodes/n1",
		"nodes/children":      "/api/v1/kg/nodes/n17?expand=children",
		"nodes/children_last": "/api/v1/kg/nodes/n17?expand=children&page=3&page_size=20",
		"nodes/children_past": "/api/v1/kg/nodes/n17?expand=children&page=9",
		"nodes/leaf":          "/api/v1/kg/nodes/n860?expand=children",
	} {
		record(name, path, "")
	}

	checkGolden(t, kgGoldenFile, update, got)
}

// TestRestoredServerGoldens: the benchmark corpus checkpointed and
// restored into a fresh System, as a warm covidkg-server boot restores
// it, reads its search index from the checkpoint instead of analysing a
// document, and serves both recordings byte for byte, miss and hit.
func TestRestoredServerGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the 500-publication corpus")
	}
	dir := t.TempDir()
	if err := benchServer(t).sys.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 42
	sys := core.NewSystem(cfg)
	if _, err := sys.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if sys.IndexReadErr != nil || sys.Search.Index().WriteSeq() != 0 {
		t.Fatalf("restore re-indexed: read error %v, %d index writes", sys.IndexReadErr, sys.Search.Index().WriteSeq())
	}
	s := NewServer(sys)
	checkSearchGolden(t, s, false)
	checkKGGolden(t, s, false)
}

// checkGolden compares got with the recording in file, or rewrites the
// file from got when update is set.
func checkGolden[T comparable](t *testing.T, file string, update bool, got map[string]T) {
	t.Helper()
	if update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, test made %d", len(want), len(got))
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: response changed:\n got  %+v\n want %+v", name, g, w)
		}
	}
}
