package pprofserve

import (
	"net/http"
	"testing"
)

func TestStart(t *testing.T) {
	logged := 0
	logf := func(string, ...any) { logged++ }

	// profiling is opt-in: no address, no listener
	if addr, err := Start("", logf); addr != "" || err != nil || logged != 0 {
		t.Fatalf(`Start("") = (%q, %v) with %d log lines, want ("", nil) and none`, addr, err, logged)
	}

	addr, err := Start("127.0.0.1:0", logf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
}
