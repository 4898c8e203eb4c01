package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed request as the generator saw it.
type sample struct {
	kind  opKind
	ms    float64
	bytes int
	ok    bool

	// /kg/query only, read from the response body
	expansions int
	truncated  bool
}

// client issues requests over keep-alive HTTP/1.1, reads every body to
// the end, checks every response, and counts what it attempted.
type client struct {
	base string
	hc   *http.Client

	attempted atomic.Int64
	failed    atomic.Int64

	mu         sync.Mutex
	violations []string          // the first few, for the report
	first      map[string][]byte // search_warm: first body per path
	identical  bool              // compare later bodies with first
}

const maxViolationsKept = 10

func newClient(base string) *client {
	return &client{
		base:  base,
		hc:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: 60 * time.Second},
		first: map[string][]byte{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// retarget points the client at another server: the first-body record
// belongs to the old one.
func (c *client) retarget(base string) {
	c.hc.CloseIdleConnections()
	c.base = base
	c.first = map[string][]byte{}
}

func (c *client) fail(o op, err error) {
	c.failed.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) < maxViolationsKept {
		c.violations = append(c.violations, fmt.Sprintf("%s %s: %v", o.method, o.path, err))
	}
}

// roundTrip sends one request and reads the whole body.
func (c *client) roundTrip(o op) (status int, body []byte, err error) {
	var rd io.Reader
	if o.body != nil {
		rd = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, c.base+o.path, rd)
	if err != nil {
		return 0, nil, err
	}
	if o.ctype != "" {
		req.Header.Set("Content-Type", o.ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// exec performs one op, times it, and checks the response. Anything but
// a correct 2xx — a shed 429 included — is a failure.
func (c *client) exec(o op) sample {
	c.attempted.Add(1)
	start := time.Now()
	status, body, err := c.roundTrip(o)
	s := sample{kind: o.kind, ms: float64(time.Since(start).Nanoseconds()) / 1e6, bytes: len(body)}
	switch {
	case err != nil:
		c.fail(o, err)
		return s
	case status < 200 || status > 299:
		c.fail(o, fmt.Errorf("status %d: %.200s", status, body))
		return s
	}
	if err := c.check(o, body, &s); err != nil {
		c.fail(o, err)
		return s
	}
	s.ok = true
	return s
}

func (c *client) check(o op, body []byte, s *sample) error {
	switch o.kind {
	case opMarker:
		return checkMarker(body, o.id)
	case opIngest:
		return checkIngestAck(body)
	case opKGQuery:
		res, err := checkKGQuery(body, o.kg)
		s.expansions, s.truncated = res.Expansions, res.Truncated
		return err
	case opKGNode:
		return checkKGNode(body, o.id)
	case opPubGet:
		return checkPublication(body, o.id)
	}
	// search_warm: a body equal to the first one for its query has been
	// checked already, and parsing 7 KB of JSON per cache hit would make
	// the generator, not the server, the larger consumer of CPU
	if c.identical {
		c.mu.Lock()
		first, seen := c.first[o.path]
		c.mu.Unlock()
		if seen {
			if !bytes.Equal(first, body) {
				return fmt.Errorf("response differs from the first response for this query (%d bytes, then %d)", len(first), len(body))
			}
			return nil
		}
	}
	if _, err := checkSearchPage(body); err != nil {
		return err
	}
	if c.identical {
		c.mu.Lock()
		c.first[o.path] = body
		c.mu.Unlock()
	}
	return nil
}

// getJSON fetches a set-up resource; it counts as an attempted request.
func (c *client) getJSON(path string, into any) error {
	o := op{method: "GET", path: path}
	c.attempted.Add(1)
	status, body, err := c.roundTrip(o)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, body)
	}
	if err == nil {
		err = json.Unmarshal(body, into)
	}
	if err != nil {
		c.fail(o, err)
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// stream is one closed-loop client: a call performs one iteration — one
// request, or a request and its follow-up check — and returns what it
// observed. The next iteration starts only when this one has its reply.
type stream func() []sample

// drive runs the streams for dur: each stops issuing at the deadline and
// finishes the iteration it is in. It returns every stream's samples and
// the time until the last stream finished. A child dying mid-run ends
// the run with that child's last log lines instead of starving it.
func drive(ctx context.Context, t *topology, streams []stream, dur time.Duration) ([][]sample, time.Duration, error) {
	samples := make([][]sample, len(streams))
	start := time.Now()
	deadline := start.Add(dur)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s stream) {
			defer wg.Done()
			for !stop.Load() && time.Now().Before(deadline) {
				samples[i] = append(samples[i], s()...)
			}
		}(i, s)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-finished:
			return samples, time.Since(start), t.checkAlive()
		case <-ctx.Done():
			stop.Store(true)
			<-finished
			return nil, 0, ctx.Err()
		case <-tick.C:
			if err := t.checkAlive(); err != nil {
				stop.Store(true)
				<-finished
				return nil, 0, err
			}
		}
	}
}

// counters is one reading of everything the window takes deltas of.
type counters struct {
	m   serverMetrics
	u   procUsage
	gen float64 // the generator's own CPU seconds
	wal int64   // bytes in the shards' WAL files
}

func readCounters(t *topology, c *client) (r counters, err error) {
	if r.m, err = scrapeMetrics(c); err != nil {
		return r, err
	}
	if r.u, err = t.usage(); err != nil {
		return r, err
	}
	if r.wal, err = t.walBytes(); err != nil {
		return r, err
	}
	r.gen, err = procCPU(os.Getpid())
	return r, err
}

// window is the raw record of one timed window.
type window struct {
	dur           time.Duration
	samples       [][]sample // per stream
	before, after counters
}

// runWindow reads the process and server counters, drives the streams
// for dur, and reads the counters again.
func runWindow(ctx context.Context, t *topology, c *client, streams []stream, dur time.Duration) (*window, error) {
	var w window
	var err error
	if w.before, err = readCounters(t, c); err != nil {
		return nil, err
	}
	if w.samples, w.dur, err = drive(ctx, t, streams, dur); err != nil {
		return nil, err
	}
	if w.after, err = readCounters(t, c); err != nil {
		return nil, err
	}
	return &w, nil
}
