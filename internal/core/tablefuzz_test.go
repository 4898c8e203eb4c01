package core

import (
	"encoding/json"
	"strings"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/jsondoc"
	"covidkg/internal/tableparse"
)

// badHeaderRows is an ingested table whose header_rows name no row:
// negative, fractional, beyond any int, and past the last row.
const badHeaderRows = `[-1, 2.5, 1e300, 99]`

const vaccineRows = `[["Vaccine","Group"],["Pfizer","Adults"],["Moderna","Children"]]`

// tableDoc is a publication carrying one table in its stored form.
func tableDoc(t testing.TB, id, rows, headerRows string) jsondoc.Doc {
	t.Helper()
	d, err := jsondoc.FromJSON([]byte(`{"_id":"` + id + `","title":"Vaccine groups","abstract":"Who got which vaccine.",` +
		`"tables":[{"caption":"Table 1","rows":` + rows + `,"header_rows":` + headerRows + `}]}`))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEnrichIgnoresBadHeaderRows: with no classifier trained, rows are
// classified from the markup's header_rows hint, which an ingested
// document supplies. Indexes naming no row must be ignored — they used
// to index the row slice and panic, after the drain had already taken
// every other pending document off the queue.
func TestEnrichIgnoresBadHeaderRows(t *testing.T) {
	s := NewSystem(DefaultConfig())
	rep := s.IngestDocs([]jsondoc.Doc{
		tableDoc(t, "bad-headers", vaccineRows, badHeaderRows),
		tableDoc(t, "good-headers", vaccineRows, `[0]`),
	})
	if rep.Failed > 0 {
		t.Fatal(rep.Err())
	}
	var st BuildStats
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("EnrichNew panicked: %v", r)
			}
		}()
		st = s.EnrichNew()
	}()
	if st.Tables != 2 {
		t.Fatalf("enriched %d tables, want both documents' 2", st.Tables)
	}
	if st.MetaRows != 1 || st.Subtrees != 2 {
		t.Fatalf("stats = %+v, want the well-formed table's one header row and two columns", st)
	}
}

// FuzzTableFromDoc feeds arbitrary stored rows and header_rows through
// TableFromDoc, row classification — the untrained markup-hint fallback
// and a trained SVM — and subtree extraction: nothing may panic, header
// hints must name rows, and every extracted subtree must have a label
// and at least one leaf.
func FuzzTableFromDoc(f *testing.F) {
	f.Add(vaccineRows, badHeaderRows)
	f.Add(vaccineRows, `[0]`)
	f.Add(`[]`, `[0]`)
	f.Add(`[[],["x"],[1,null,"Fever"]]`, `[1, "0", null]`)
	f.Add(`[["  ","Side effect"],["Pfizer"," Rash "],["Moderna"]]`, `[0, 0, 1]`)
	f.Add(`{"rows":1}`, `7`)
	for _, p := range cord19.NewGenerator(5).Corpus(6) {
		for _, tv := range p.Doc().GetArray("tables") {
			tm := tv.(map[string]any)
			rows, _ := json.Marshal(tm["rows"])
			hdr, _ := json.Marshal(tm["header_rows"])
			f.Add(string(rows), string(hdr))
		}
	}
	cfg := DefaultConfig()
	cfg.TrainTables = 40
	cfg.VocabSize = 800
	trained := NewSystem(cfg)
	if _, err := trained.TrainModels(); err != nil {
		f.Fatal(err)
	}
	classifiers := map[string]*System{"untrained": {}, "svm": {SVM: trained.SVM}}

	f.Fuzz(func(t *testing.T, rows, headerRows string) {
		var rv, hv any
		if json.Unmarshal([]byte(rows), &rv) != nil || json.Unmarshal([]byte(headerRows), &hv) != nil {
			return
		}
		tb := tableparse.TableFromDoc(jsondoc.Doc{"rows": rv, "header_rows": hv})
		for _, h := range tb.MarkupHeaderRows {
			if h < 0 || h >= tb.NumRows() {
				t.Fatalf("header row %d of %d rows", h, tb.NumRows())
			}
		}
		for name, s := range classifiers {
			meta := s.classifyRows(tb)
			if len(meta) != tb.NumRows() {
				t.Fatalf("%s: %d labels for %d rows", name, len(meta), tb.NumRows())
			}
			for _, sub := range ExtractSubtrees(tb, meta, "p") {
				if strings.TrimSpace(sub.Label) == "" || len(sub.Children) == 0 {
					t.Fatalf("%s: subtree %+v", name, sub)
				}
				for _, c := range sub.Children {
					if strings.TrimSpace(c.Label) == "" {
						t.Fatalf("%s: empty leaf under %q", name, sub.Label)
					}
				}
			}
		}
	})
}
