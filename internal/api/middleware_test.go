package api

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestRecoverMiddleware: a panicking handler yields a 500 JSON error
// and the process survives to serve the next request.
func TestRecoverMiddleware(t *testing.T) {
	log.SetOutput(io.Discard) // the stack trace is expected noise here
	defer log.SetOutput(os.Stderr)

	// a server over a nil system: any data handler dereferences sys and
	// panics — exactly the class of bug the middleware must contain
	s := NewServer(nil)
	rec, body := get(t, s, "/api/v1/stats")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if body["error"] == "" || body["error"] == nil {
		t.Fatalf("no JSON error body: %q", rec.Body.String())
	}
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("content type = %q", rec.Header().Get("Content-Type"))
	}

	// the mux (and process) is still alive
	rec2, body2 := get(t, s, "/healthz")
	if rec2.Code != http.StatusOK || body2["status"] != "ok" {
		t.Fatalf("server dead after panic: %d %v", rec2.Code, body2)
	}
}

// TestRecoverMiddlewarePassesAbortHandler: net/http's own abort
// sentinel must propagate, not turn into a 500.
func TestRecoverMiddlewarePassesAbortHandler(t *testing.T) {
	h := recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want ErrAbortHandler to pass through", r)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}
