package shardnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"covidkg/internal/breaker"
	"covidkg/internal/docstore"
	"covidkg/internal/jsondoc"
	"covidkg/internal/retry"
)

// TestDarkShardScheduleMatchesModel runs seeded random schedules of
// writes, reads and shard outages against a coordinator over shard
// servers, checked against a map model that applies only the writes the
// coordinator acknowledged. A dark shard must fail every operation with
// a ShardError naming it; a shard that has been back for a full breaker
// cooldown must agree with the model on every read; in between, an
// operation may fail, but a failed write must change nothing. After
// every outage is cleared and the cooldown has passed, a full scan must
// equal the model byte for byte.
func TestDarkShardScheduleMatchesModel(t *testing.T) {
	const (
		seeds    = 200
		ops      = 200
		shards   = 4
		keys     = 32
		cooldown = time.Second
	)
	for seed := int64(1); seed <= seeds; seed++ {
		runDarkShardSchedule(t, seed, ops, shards, keys, cooldown)
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

func runDarkShardSchedule(t *testing.T, seed int64, ops, shards, keys int, cooldown time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	var clock atomic.Int64 // fake breaker clock, nanoseconds
	now := func() time.Time { return time.Unix(0, clock.Load()) }

	proxies := make([]*darkProxy, shards)
	addrs := make([]string, shards)
	for si := range proxies {
		srv, err := NewServer(ServerConfig{Name: fmt.Sprintf("shard%d", si), Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		backend, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		proxies[si] = startDarkProxy(t, backend.String())
		defer proxies[si].close()
		addrs[si] = proxies[si].ln.Addr().String()
	}
	c, err := Dial(Config{
		DialTimeout: time.Second,
		CallTimeout: 5 * time.Second,
		HedgeDelay:  time.Hour, // a hedge left running would race the next outage
		Breaker:     breaker.Config{Threshold: 2, Cooldown: cooldown, Now: now},
		ReadRetry:   retry.Config{Attempts: 1},
		WriteRetry:  retry.Config{Attempts: 1},
	}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	model := map[string]jsondoc.Doc{}
	dark := make([]bool, shards)
	healAt := make([]int64, shards) // fake time a cleared shard must serve again
	serving := func(si int) bool { return !dark[si] && clock.Load() >= healAt[si] }

	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	// checkShardErr vets a failed operation on shard si: it must name si,
	// and a shard that is serving must not fail at all.
	checkShardErr := func(op string, si int, err error) {
		t.Helper()
		if got, ok := docstore.ShardOfError(err); !ok || got != si || !errors.Is(err, docstore.ErrShardUnavailable) {
			fail("%s on shard %d: err %v, want a ShardError on it wrapping ErrShardUnavailable", op, si, err)
		} else if serving(si) {
			fail("%s on serving shard %d failed: %v", op, si, err)
		}
	}
	// write vets one write's outcome on id's shard: a dark shard must
	// reject it, and only an acknowledged write reaches the model (apply).
	write := func(op, id string, err error, apply func()) {
		t.Helper()
		si := c.ShardOfID(id)
		switch {
		case err == nil:
			if dark[si] {
				fail("%s %s acknowledged on dark shard %d", op, id, si)
			}
			apply()
		case errors.Is(err, docstore.ErrNotFound) || errors.Is(err, docstore.ErrDuplicateID):
			if dark[si] {
				fail("%s %s on dark shard %d: %v", op, id, si, err)
			}
			_, exists := model[id]
			if exists != errors.Is(err, docstore.ErrDuplicateID) {
				fail("%s %s: %v, but model has it = %v", op, id, err, exists)
			}
		default:
			checkShardErr(op, si, err)
		}
	}
	body := func(id string) jsondoc.Doc {
		return jsondoc.Doc{docstore.IDField: id, "v": float64(rng.Intn(1000)), "tag": fmt.Sprintf("t%d", rng.Intn(5))}
	}

	for op := 0; op < ops; op++ {
		id := fmt.Sprintf("k%02d", rng.Intn(keys))
		switch r := rng.Intn(100); {
		case r < 8: // darken a shard
			si := rng.Intn(shards)
			proxies[si].setDark(true)
			waitConnsDropped(t, c.clients[si])
			dark[si] = true
		case r < 14: // bring a shard back
			si := rng.Intn(shards)
			if dark[si] {
				proxies[si].setDark(false)
				dark[si] = false
				healAt[si] = clock.Load() + int64(cooldown)
			}
		case r < 20: // time passes
			clock.Add(int64(rng.Intn(3)) * int64(cooldown) / 2)
		case r < 40:
			d := body(id)
			_, err := c.Insert(d)
			write("Insert", id, err, func() {
				if _, exists := model[id]; exists {
					fail("Insert %s acknowledged over an existing document", id)
				}
				model[id] = jsondoc.NormalizeDoc(d)
			})
		case r < 56:
			err := c.Delete(id)
			write("Delete", id, err, func() {
				if _, exists := model[id]; !exists {
					fail("Delete %s succeeded but the model has no such document", id)
				}
				delete(model, id)
			})
		case r < 72:
			si := c.ShardOfID(id)
			got, err := c.Get(id)
			want, exists := model[id]
			switch {
			case err == nil:
				if dark[si] {
					fail("Get %s served by dark shard %d", id, si)
				} else if !exists || !bytes.Equal(got.JSON(), want.JSON()) {
					fail("Get %s = %s, model %s", id, got.JSON(), want.JSON())
				}
			case errors.Is(err, docstore.ErrNotFound):
				if dark[si] || exists {
					fail("Get %s = %v; dark %v, model has it %v", id, err, dark[si], exists)
				}
			default:
				checkShardErr("Get", si, err)
			}
		case r < 80:
			ids := make([]string, 1+rng.Intn(8))
			for i := range ids {
				ids[i] = fmt.Sprintf("k%02d", rng.Intn(keys))
			}
			docs, missing, err := c.GetMany(context.Background(), ids)
			if err != nil {
				fail("GetMany: %v", err)
				break
			}
			isMissing := map[int]bool{}
			for _, si := range missing {
				isMissing[si] = true
				if serving(si) {
					fail("GetMany reports serving shard %d missing", si)
				}
			}
			for i, id := range ids {
				si := c.ShardOfID(id)
				want, exists := model[id]
				switch {
				case dark[si] && (docs[i] != nil || !isMissing[si]):
					fail("GetMany %s on dark shard %d: doc %v, missing %v", id, si, docs[i], missing)
				case isMissing[si]:
					if docs[i] != nil {
						fail("GetMany %s returned a document from missing shard %d", id, si)
					}
				case !exists && docs[i] != nil:
					fail("GetMany %s = %s, model has none", id, docs[i].JSON())
				case exists && (docs[i] == nil || !bytes.Equal(docs[i].JSON(), want.JSON())):
					fail("GetMany %s = %v, model %s", id, docs[i], want.JSON())
				}
			}
		case r < 90:
			si := rng.Intn(shards)
			got, err := c.ShardIDsContext(context.Background(), si)
			if err != nil {
				checkShardErr("ShardIDsContext", si, err)
				break
			}
			if dark[si] {
				fail("ShardIDsContext served dark shard %d", si)
			}
			if want := modelShardIDs(model, c, si); fmt.Sprint(got) != fmt.Sprint(want) {
				fail("ShardIDsContext(%d) = %v, model %v", si, got, want)
			}
		default:
			got, err := scanJSON(c)
			if err != nil {
				si, _ := docstore.UnavailableShard(err)
				if si < 0 || serving(si) {
					fail("ScanContext: %v", err)
				}
				break
			}
			for si := range dark {
				if dark[si] {
					fail("ScanContext succeeded over dark shard %d", si)
				}
			}
			if want := modelJSON(model); !bytes.Equal(got, want) {
				fail("ScanContext differs from model:\n got %s\nwant %s", got, want)
			}
		}
		if t.Failed() {
			return
		}
	}

	for _, p := range proxies {
		p.setDark(false)
	}
	clock.Add(int64(cooldown))
	got, err := scanJSON(c)
	if err != nil {
		fail("final ScanContext: %v", err)
	} else if want := modelJSON(model); !bytes.Equal(got, want) {
		fail("final ScanContext differs from model:\n got %s\nwant %s", got, want)
	}
}

// darkProxy forwards TCP connections to one shard server and can take
// the shard dark: while dark it closes every connection it accepts, and
// going dark drops the connections it was forwarding. Nothing reaches
// the server while the shard is dark, and the server keeps its
// documents throughout.
type darkProxy struct {
	ln      net.Listener
	backend string

	mu    sync.Mutex
	dark  bool
	conns map[net.Conn]bool // both ends of every forwarded connection
}

func startDarkProxy(t *testing.T, backend string) *darkProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &darkProxy{ln: ln, backend: backend, conns: map[net.Conn]bool{}}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.forward(conn)
		}
	}()
	return p
}

func (p *darkProxy) forward(client net.Conn) {
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		client.Close()
		return
	}
	p.mu.Lock()
	if p.dark {
		p.mu.Unlock()
		client.Close()
		server.Close()
		return
	}
	p.conns[client], p.conns[server] = true, true
	p.mu.Unlock()
	go func() {
		io.Copy(server, client)
		server.Close()
	}()
	io.Copy(client, server)
	client.Close()
	p.mu.Lock()
	delete(p.conns, client)
	delete(p.conns, server)
	p.mu.Unlock()
}

func (p *darkProxy) setDark(dark bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dark = dark
	if dark {
		for conn := range p.conns {
			conn.Close()
		}
	}
}

func (p *darkProxy) close() {
	p.ln.Close()
	p.setDark(true)
}

// waitConnsDropped waits until the client has seen the proxy drop every
// connection it held, so no operation after the outage ends can ride a
// connection from before it.
func waitConnsDropped(t *testing.T, cl *shardClient) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		cl.mu.Lock()
		live := false
		for _, s := range cl.slots {
			live = live || (s.mc != nil && s.mc.live())
		}
		cl.mu.Unlock()
		if !live {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("client kept a live connection through the outage")
		}
	}
}

// scanJSON serialises a full ScanContext, one document per line.
func scanJSON(c *Coordinator) ([]byte, error) {
	var buf bytes.Buffer
	err := c.ScanContext(context.Background(), func(d jsondoc.Doc) bool {
		buf.Write(d.JSON())
		buf.WriteByte('\n')
		return true
	})
	return buf.Bytes(), err
}

// modelJSON serialises the model in scan order: ids sorted.
func modelJSON(model map[string]jsondoc.Doc) []byte {
	var buf bytes.Buffer
	ids := make([]string, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		buf.Write(model[id].JSON())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// modelShardIDs lists the model's ids placed on shard si, sorted.
func modelShardIDs(model map[string]jsondoc.Doc, c *Coordinator, si int) []string {
	ids := []string{}
	for id := range model {
		if c.ShardOfID(id) == si {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}
