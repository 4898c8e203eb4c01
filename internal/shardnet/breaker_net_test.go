package shardnet

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"covidkg/internal/breaker"
	"covidkg/internal/metrics"
)

// scriptedServer accepts raw TCP connections and runs the i-th handler
// on the i-th connection (the last handler repeats). It lets tests
// produce precise network pathologies — mid-stream EOF, never-reply,
// slow-reply — that a healthy Server never would.
func scriptedServer(t *testing.T, handlers ...func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			h := handlers[min(i, len(handlers)-1)]
			go func() {
				defer conn.Close()
				h(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// readRequest reads one b1 request frame off a scripted connection.
func readRequest(br *bufio.Reader) (uint64, *request, error) {
	var buf []byte
	payload, err := readRawFrame(br, &buf)
	if err != nil {
		return 0, nil, err
	}
	return decodeBinaryRequest(payload)
}

// writeResponse writes one b1 response frame answering corr.
func writeResponse(conn net.Conn, corr uint64, resp *response) error {
	frame, err := appendResponseFrame(nil, corr, resp)
	if err != nil {
		return err
	}
	_, err = conn.Write(frame)
	return err
}

// midStreamEOF reads the request then slams the connection shut before
// any reply — the reply-lost case.
func midStreamEOF(conn net.Conn) {
	readRequest(bufio.NewReader(conn))
}

// neverReply reads the request and then sits on the connection until
// the peer gives up — the slow-but-alive (hung) case.
func neverReply(conn net.Conn) {
	br := bufio.NewReader(conn)
	readRequest(br)
	io.Copy(io.Discard, br) // block until the client abandons us
}

// healthyReply answers every request on the connection like a minimal
// shard server.
func healthyReply(conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		corr, _, err := readRequest(br)
		if err != nil {
			return
		}
		if err := writeResponse(conn, corr, &response{N: 1}); err != nil {
			return
		}
	}
}

// slowFirstReply answers the connection's first request with N=99 after
// d and every later one with N=1 at once, out of order like a real
// server's per-request dispatch — alive, just slow on one request.
func slowFirstReply(d time.Duration) func(net.Conn) {
	return func(conn net.Conn) {
		br := bufio.NewReader(conn)
		var wmu sync.Mutex
		reply := func(corr uint64, n int) {
			wmu.Lock()
			defer wmu.Unlock()
			writeResponse(conn, corr, &response{N: n})
		}
		for first := true; ; first = false {
			corr, _, err := readRequest(br)
			if err != nil {
				return
			}
			if first {
				time.AfterFunc(d, func() { reply(corr, 99) })
			} else {
				reply(corr, 1)
			}
		}
	}
}

func TestBreakerOpensOnConnectRefused(t *testing.T) {
	// Reserve a port, then free it: connections are refused instantly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	reg := metrics.NewRegistry()
	cl := newShardClient("shard0", addr, clientOpts{
		dialTimeout: 200 * time.Millisecond,
		brk:         breaker.Config{Threshold: 3, Cooldown: time.Hour},
		met:         reg,
	})
	for i := 0; i < 3; i++ {
		_, err := cl.call(context.Background(), &request{Op: opPing})
		if !errors.Is(err, ErrNotSent) {
			t.Fatalf("call %d = %v, want ErrNotSent (refused dial definitively did not send)", i, err)
		}
	}
	if got := cl.brk.State(); got != breaker.Open {
		t.Fatalf("breaker state after %d refused dials = %v, want Open", 3, got)
	}
	if got := reg.Counter("breaker_open").Value(); got != 1 {
		t.Fatalf("breaker_open = %d after the breaker opened once, want 1", got)
	}
	// While open the shard is rejected without touching the network.
	start := time.Now()
	_, err = cl.call(context.Background(), &request{Op: opPing})
	if !errors.Is(err, ErrNotSent) {
		t.Fatalf("breaker-open call = %v, want ErrNotSent", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("breaker-open rejection took %v, want fail-fast", d)
	}
}

func TestBreakerOpensOnDialTimeout(t *testing.T) {
	srv, addr := startServer(t, "shard0", "")
	defer srv.Close()

	// A dial budget no TCP handshake can meet: every dial times out, and
	// a timed-out dial is still definitively not-sent.
	cl := newShardClient("shard0", addr, clientOpts{
		dialTimeout: time.Nanosecond,
		brk:         breaker.Config{Threshold: 2, Cooldown: time.Hour},
	})
	for i := 0; i < 2; i++ {
		_, err := cl.call(context.Background(), &request{Op: opPing})
		if !errors.Is(err, ErrNotSent) {
			t.Fatalf("call %d = %v, want ErrNotSent", i, err)
		}
	}
	if got := cl.brk.State(); got != breaker.Open {
		t.Fatalf("breaker state after dial timeouts = %v, want Open", got)
	}
}

func TestBreakerOpensOnMidStreamEOFThenRecovers(t *testing.T) {
	// First three connections die mid-stream; the server then heals.
	addr := scriptedServer(t, midStreamEOF, midStreamEOF, midStreamEOF, healthyReply)

	cl := newShardClient("shard0", addr, clientOpts{
		brk: breaker.Config{Threshold: 3, Cooldown: 30 * time.Millisecond},
	})
	for i := 0; i < 3; i++ {
		_, err := cl.call(context.Background(), &request{Op: opPing})
		if !errors.Is(err, ErrIndeterminate) {
			t.Fatalf("mid-stream EOF call %d = %v, want ErrIndeterminate (the request may have been applied)", i, err)
		}
	}
	if got := cl.brk.State(); got != breaker.Open {
		t.Fatalf("state after 3 EOFs = %v, want Open", got)
	}
	// During cooldown: rejected without a probe.
	if _, err := cl.call(context.Background(), &request{Op: opPing}); !errors.Is(err, ErrNotSent) {
		t.Fatalf("cooldown call = %v, want ErrNotSent", err)
	}
	// After cooldown, exactly one half-open probe rediscovers the shard.
	time.Sleep(40 * time.Millisecond)
	if _, err := cl.call(context.Background(), &request{Op: opPing}); err != nil {
		t.Fatalf("half-open probe = %v, want success", err)
	}
	if got := cl.brk.State(); got != breaker.Closed {
		t.Fatalf("state after successful probe = %v, want Closed", got)
	}
}

func TestSlowButAliveTimesOutAsIndeterminate(t *testing.T) {
	addr := scriptedServer(t, neverReply)
	cl := newShardClient("shard0", addr, clientOpts{
		callTimeout: 80 * time.Millisecond,
		brk:         breaker.Config{Threshold: 1, Cooldown: time.Hour},
	})
	start := time.Now()
	_, err := cl.call(context.Background(), &request{Op: opPing})
	if !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("hung-server call = %v, want ErrIndeterminate", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("hung-server call took %v, want bounded by callTimeout", d)
	}
	if got := cl.brk.State(); got != breaker.Open {
		t.Fatalf("state after hung call = %v (threshold 1), want Open", got)
	}
}

// TestHedgedReadBeatsSlowRequest pins the hedging behavior: when the
// first attempt is slow but the server alive, a second request is
// pipelined after the hedge budget and its fast reply wins.
func TestHedgedReadBeatsSlowRequest(t *testing.T) {
	// The first request is answered after 400ms; the hedge instantly.
	addr := scriptedServer(t, slowFirstReply(400*time.Millisecond))
	cl := newShardClient("shard0", addr, clientOpts{
		hedgeDelay: 20 * time.Millisecond,
	})
	t.Cleanup(cl.close)
	start := time.Now()
	resp, err := cl.hedgedCall(context.Background(), &request{Op: opPing})
	if err != nil {
		t.Fatalf("hedgedCall: %v", err)
	}
	elapsed := time.Since(start)
	if resp.N != 1 {
		t.Fatalf("hedged winner N = %d, want 1 (the hedge)", resp.N)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("hedged read took %v — the slow request was not hedged", elapsed)
	}
	if got := cl.met.Counter("shardnet.client.hedges").Value(); got != 1 {
		t.Fatalf("hedges counter = %d, want 1", got)
	}
}

// TestAdaptiveHedgeBudgetTracksP95 pins the 2×p95 adaptation: after
// enough fast calls the budget shrinks from the 25ms default toward
// twice the observed p95 (clamped at 1ms).
func TestAdaptiveHedgeBudgetTracksP95(t *testing.T) {
	_, addr := startServer(t, "shard0", "")
	cl := newShardClient("shard0", addr, clientOpts{})

	if d := cl.currentHedgeDelay(); d != 25*time.Millisecond {
		t.Fatalf("cold hedge budget = %v, want 25ms default", d)
	}
	for i := 0; i < 32; i++ {
		if _, err := cl.call(context.Background(), &request{Op: opPing}); err != nil {
			t.Fatalf("warmup call %d: %v", i, err)
		}
	}
	d := cl.currentHedgeDelay()
	if d < time.Millisecond || d > 250*time.Millisecond {
		t.Fatalf("adaptive budget %v outside clamp [1ms, 250ms]", d)
	}
	if d >= 25*time.Millisecond {
		t.Fatalf("adaptive budget %v did not shrink below the 25ms default after 32 sub-millisecond loopback calls", d)
	}
}
