package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"covidkg/internal/core"
)

// FuzzIngestBody posts arbitrary bytes to the ingest route, once framed
// as a JSON array and once as NDJSON, and holds the streaming decoder to
// its contract: no panic, no 5xx, the store grows by exactly the
// "ingested" count the response reports, and a 400 stored nothing.
func FuzzIngestBody(f *testing.F) {
	s, sys := testServer(f)

	var many strings.Builder
	many.WriteString("[")
	for i := 0; i <= core.IngestBatchSize; i++ {
		if i > 0 {
			many.WriteString(",")
		}
		fmt.Fprintf(&many, `{"_id": "fz-many-%d", "title": "batch edge %d"}`, i, i)
	}
	many.WriteString("]")
	for _, seed := range []string{
		"",
		"[",
		"[]",
		`[{"_id": "fz-1", "title": "one"}] trailing`,
		`{"_id": "fz-4", "title": "four"} trailing`,
		"{\"_id\": \"fz-2\", \"title\": \"two\"}\n{\"_id\": \"fz-3\", \"abstract\": \"three\"}\n",
		many.String(),
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ctype := range []string{"application/json", "application/x-ndjson"} {
			before := sys.Pubs.Count()
			req := httptest.NewRequest(http.MethodPost, "/api/v1/publications", bytes.NewReader(body))
			req.Header.Set("Content-Type", ctype)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			delta := sys.Pubs.Count() - before

			if rec.Code >= 500 {
				t.Fatalf("%s: status %d: %s", ctype, rec.Code, rec.Body)
			}
			if rec.Code == http.StatusBadRequest && delta != 0 {
				t.Fatalf("%s: 400 but the store grew by %d", ctype, delta)
			}
			var out struct {
				Ingested int `json:"ingested"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s: status %d with a body that is not JSON: %v", ctype, rec.Code, err)
			}
			if delta != out.Ingested {
				t.Fatalf("%s: status %d reports %d ingested, the store grew by %d", ctype, rec.Code, out.Ingested, delta)
			}
		}
	})
}
