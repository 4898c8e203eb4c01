package shardnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"covidkg/internal/breaker"
	"covidkg/internal/jsondoc"
	"covidkg/internal/metrics"
)

// hasLiveMux reports whether any slot holds a live connection.
func (c *shardClient) hasLiveMux() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.slots {
		if s.mc != nil && s.mc.live() {
			return true
		}
	}
	return false
}

// TestMuxPipelinesConcurrentCalls floods one cold client with
// concurrent calls and asserts they all complete correctly over the
// small connection set — the demux-by-correlation-id path under real
// concurrency, and at most one dial per slot however many first calls
// race.
func TestMuxPipelinesConcurrentCalls(t *testing.T) {
	srv, addr := startServer(t, "shard0", "")
	c := newShardClient("shard0", addr, clientOpts{dialTimeout: time.Second, callTimeout: 5 * time.Second})
	t.Cleanup(c.close)
	ctx := context.Background()

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.call(ctx, &request{Op: opInsert, Doc: jsondoc.Doc{"_id": fmt.Sprintf("p-%d", i), "i": float64(i)}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cold concurrent insert %d: %v", i, err)
		}
	}
	srv.connMu.Lock()
	conns := len(srv.conns)
	srv.connMu.Unlock()
	if conns < 1 || conns > c.opts.muxConns {
		t.Fatalf("%d cold concurrent calls opened %d connections, want at most one per slot (%d)", n, conns, c.opts.muxConns)
	}

	errs = make([]error, n*4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("p-%d", g%n)
			resp, err := c.call(ctx, &request{Op: opGet, ID: id})
			if err != nil {
				errs[g] = err
				return
			}
			if resp.Doc["_id"] != id {
				errs[g] = fmt.Errorf("got %v, want %s (cross-wired correlation?)", resp.Doc["_id"], id)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", g, err)
		}
	}
}

// TestMuxIndeterminateOnSilentServer pins outcome classification under
// pipelining: a server that answers one call and then goes silent must
// produce ErrIndeterminate — the frame left the client, so the
// conservative classification is "may have been applied".
func TestMuxIndeterminateOnSilentServer(t *testing.T) {
	addr := scriptedServer(t, func(conn net.Conn) {
		br := bufio.NewReader(conn)
		corr, _, err := readRequest(br)
		if err != nil || writeResponse(conn, corr, &response{ID: "hello"}) != nil {
			return
		}
		io.Copy(io.Discard, br) // never answer another frame
	})

	c := newShardClient("shard0", addr, clientOpts{muxConns: 1})
	t.Cleanup(c.close)
	if _, err := c.call(context.Background(), &request{Op: opPing}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	if !c.hasLiveMux() {
		t.Fatal("client holds no live connection after a served call")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := c.call(ctx, &request{Op: opGet, ID: "x"})
	if !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("silent server after write: err = %v, want ErrIndeterminate", err)
	}
}

// TestMuxClassifiesQueuedVsWrittenOnDeath drives a muxConn over an
// unread pipe: the first call's frame is claimed by the writer (stuck
// in flush), the second stays queued. When the connection dies, the
// written call must classify ErrIndeterminate and the queued one
// ErrNotSent — never the other way around.
func TestMuxClassifiesQueuedVsWrittenOnDeath(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	m := newMuxConn("shard0", near, metrics.NewRegistry())
	defer m.kill(errors.New("test done"))

	deadline := time.Now().Add(5 * time.Second)
	res1 := make(chan error, 1)
	go func() {
		_, err := m.do(&request{Op: opGet, ID: "first"}, deadline)
		res1 <- err
	}()
	// Let the writer claim the first frame and block flushing it into
	// the unread pipe.
	time.Sleep(100 * time.Millisecond)
	res2 := make(chan error, 1)
	go func() {
		_, err := m.do(&request{Op: opGet, ID: "second"}, deadline)
		res2 <- err
	}()
	time.Sleep(100 * time.Millisecond)

	far.Close() // connection dies with call 1 written, call 2 queued

	if err := <-res1; !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("written call: err = %v, want ErrIndeterminate", err)
	}
	err := <-res2
	if !errors.Is(err, ErrNotSent) && !errors.Is(err, errConnDead) {
		t.Fatalf("queued call: err = %v, want ErrNotSent (or conn-dead redial)", err)
	}
	if errors.Is(err, ErrIndeterminate) {
		t.Fatalf("queued call misclassified as indeterminate: %v", err)
	}
}

// TestServerClosesForeignFirstFrame pins the one version gate from the
// server's side: a peer whose first frame is not b1 — the JSON envelope
// a pre-b1 client would open with, or a frame with another version byte
// claiming 64 MiB — has its connection closed at once, with nothing
// dispatched and no buffer sized from the claimed length.
func TestServerClosesForeignFirstFrame(t *testing.T) {
	jsonEnvelope := []byte(`{"op":"ping","shard":0,"features":["b1"]}`)
	frames := map[string][]byte{
		"json_envelope": append(binary.BigEndian.AppendUint32(nil, uint32(len(jsonEnvelope))), jsonEnvelope...),
		// The claimed payload never arrives: a server that waited for it,
		// or sized a buffer for it, fails the checks below.
		"wrong_version_64MiB": append(binary.BigEndian.AppendUint32(nil, 64<<20), 0x02, binKindRequest, 1),
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			met := metrics.NewRegistry()
			srv, err := NewServer(ServerConfig{Name: "shard0", Metrics: met, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := conn.Read(make([]byte, 16))
			runtime.ReadMemStats(&after)

			var ne net.Error
			if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("read %d bytes, err %v; want the server to have closed the connection", n, err)
			}
			if got := met.Counter("shardnet.server.requests").Value(); got != 0 {
				t.Fatalf("server dispatched %d requests from a foreign frame", got)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
				t.Fatalf("process allocated %d bytes while rejecting the frame: sized from its length prefix?", grew)
			}
		})
	}
}

// TestClientClassifiesGarbageReply is the same gate from the client's
// side: whatever a server answers that is not a b1 response frame, the
// call has been written, so it is ErrIndeterminate, it counts against
// the breaker, and it returns by its deadline.
func TestClientClassifiesGarbageReply(t *testing.T) {
	replies := map[string][]byte{
		"http_400":        []byte("HTTP/1.1 400 Bad Request\r\n\r\n"), // length prefix far over maxFrame
		"json_envelope":   append(binary.BigEndian.AppendUint32(nil, 9), `{"n":1}  `...),
		"truncated_frame": append(binary.BigEndian.AppendUint32(nil, 4096), binVersion, binKindResponse, 1),
	}
	for name, reply := range replies {
		t.Run(name, func(t *testing.T) {
			addr := scriptedServer(t, func(conn net.Conn) {
				br := bufio.NewReader(conn)
				if _, _, err := readRequest(br); err != nil {
					return
				}
				conn.Write(reply)
				io.Copy(io.Discard, br) // stay connected: the client must not wait for us
			})
			cl := newShardClient("shard0", addr, clientOpts{
				callTimeout: 150 * time.Millisecond,
				brk:         breaker.Config{Threshold: 1, Cooldown: time.Hour},
			})
			t.Cleanup(cl.close)
			start := time.Now()
			_, err := cl.call(context.Background(), &request{Op: opInsert, Doc: jsondoc.Doc{"_id": "g"}})
			if !errors.Is(err, ErrIndeterminate) {
				t.Fatalf("err = %v, want ErrIndeterminate", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("call took %v against a 150ms deadline", d)
			}
			if got := cl.brk.State(); got != breaker.Open {
				t.Fatalf("breaker state = %v after a garbage reply (threshold 1), want Open", got)
			}
		})
	}
}
