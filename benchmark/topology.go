package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The topology every workload runs against. The server keeps every flag
// but these at its default; the shards keep every flag but -addr, -name
// and -wal (so fsync-before-ack is on and -replicas is 3).
const (
	numShards  = 4
	serverPubs = 500
	serverSeed = 42
)

// logTail keeps a process's last lines of output, for the failure report
// when a child dies mid-run.
type logTail struct {
	mu    sync.Mutex
	lines []string
	part  string
}

const tailLines = 20

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.part += string(p)
	for {
		i := strings.IndexByte(l.part, '\n')
		if i < 0 {
			break
		}
		l.lines = append(l.lines, l.part[:i])
		l.part = l.part[i+1:]
	}
	if n := len(l.lines); n > tailLines {
		l.lines = append(l.lines[:0], l.lines[n-tailLines:]...)
	}
	return len(p), nil
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// child is one spawned server-side process, in its own process group so
// one kill reaches anything it might spawn.
type child struct {
	name   string
	cmd    *exec.Cmd
	log    *logTail
	exited chan struct{} // closed once Wait returned
}

func spawn(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, log: &logTail{}, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stdout = c.log
	c.cmd.Stderr = c.log
	// Pdeathsig covers the one exit path no handler can: the benchmark
	// itself being SIGKILLed.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", name, err)
	}
	go func() {
		_ = c.cmd.Wait() // the exit status of a killed child carries nothing
		close(c.exited)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill SIGKILLs the child's process group and waits until it is reaped.
func (c *child) kill() {
	_ = syscall.Kill(-c.pid(), syscall.SIGKILL) // already gone is fine
	<-c.exited
}

func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// topology is one running deployment: 4 WAL-backed covidkg-shard
// processes and the covidkg-server in front of them.
type topology struct {
	dir        string // WALs live here
	shardBin   string
	shards     []*child
	shardAddrs []string
	server     *child
	baseURL    string
	setup      time.Duration // first shard spawned → /readyz 200
}

// Ports are probed in 10000–29999, below the kernel's ephemeral range
// (32768 up by default). A port the kernel hands out itself can become the
// source port of some outgoing connection between the probe and the
// child's bind — or while a killed shard is down, whose restart on the
// same address then fails with "address already in use".
const portLo, portHi = 10000, 30000

var portCursor = portLo + os.Getpid()%(portHi-portLo)

// freePort finds an unused loopback port by binding it. The server logs
// its -addr flag rather than the bound address, so port 0 cannot be used
// there; the listener is closed again and the number handed on.
func freePort() (int, error) {
	for tries := 0; tries < portHi-portLo; tries++ {
		port := portCursor
		if portCursor++; portCursor == portHi {
			portCursor = portLo
		}
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			continue // taken
		}
		ln.Close()
		return port, nil
	}
	return 0, fmt.Errorf("no free loopback port in %d..%d", portLo, portHi-1)
}

func waitDial(ctx context.Context, c *child, addr string) error {
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		if !c.alive() {
			return fmt.Errorf("%s exited before listening on %s:\n%s", c.name, addr, c.log)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (t *topology) walPath(i int) string {
	return filepath.Join(t.dir, fmt.Sprintf("shard%d.wal", i))
}

func (t *topology) spawnShard(ctx context.Context, i int) error {
	c, err := spawn(fmt.Sprintf("shard%d", i), t.shardBin,
		"-addr", t.shardAddrs[i], "-name", fmt.Sprintf("shard%d", i), "-wal", t.walPath(i))
	if err != nil {
		return err
	}
	t.shards[i] = c
	return waitDial(ctx, c, t.shardAddrs[i])
}

// startShards spawns the shard tier alone, on fresh WALs in a new
// directory under workDir; the traced run puts its own in-process server
// tier in front of it.
func startShards(ctx context.Context, binDir, workDir string) (*topology, error) {
	dir, err := os.MkdirTemp(workDir, "topo-")
	if err != nil {
		return nil, err
	}
	t := &topology{
		dir:        dir,
		shardBin:   filepath.Join(binDir, "covidkg-shard"),
		shards:     make([]*child, numShards),
		shardAddrs: make([]string, numShards),
	}
	for i := range t.shardAddrs {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		t.shardAddrs[i] = fmt.Sprintf("127.0.0.1:%d", port)
	}
	for i := range t.shards {
		if err := t.spawnShard(ctx, i); err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

// startTopology spawns the shards and the server and waits for /readyz:
// corpus generation, ingest through the WALs, model training and the KG
// build all happen inside that wait, and are what setup measures.
func startTopology(ctx context.Context, binDir, workDir string) (*topology, error) {
	start := time.Now()
	t, err := startShards(ctx, binDir, workDir)
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		t.stop()
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	t.baseURL = "http://" + addr
	t.server, err = spawn("server", filepath.Join(binDir, "covidkg-server"),
		"-addr", addr, "-pubs", fmt.Sprint(serverPubs), "-seed", fmt.Sprint(serverSeed),
		"-shard-addrs", strings.Join(t.shardAddrs, ","))
	if err != nil {
		t.stop()
		return nil, err
	}
	if err := t.waitReady(ctx); err != nil {
		t.stop()
		return nil, err
	}
	t.setup = time.Since(start)
	return t, nil
}

func (t *topology) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(t.baseURL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := t.checkAlive(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func (t *topology) children() []*child {
	out := make([]*child, 0, len(t.shards)+1)
	for _, c := range t.shards {
		if c != nil {
			out = append(out, c)
		}
	}
	if t.server != nil {
		out = append(out, t.server)
	}
	return out
}

// checkAlive fails loudly, with the child's last log lines, when any
// process of the topology has exited.
func (t *topology) checkAlive() error {
	for _, c := range t.children() {
		if !c.alive() {
			return fmt.Errorf("%s (pid %d) died; its last %d log lines:\n%s", c.name, c.pid(), tailLines, c.log)
		}
	}
	return nil
}

// restartShard SIGKILLs shard i and starts it again on the same WAL and
// address — a process crash, which the WAL replay must cover.
func (t *topology) restartShard(ctx context.Context, i int) error {
	t.shards[i].kill()
	return t.spawnShard(ctx, i)
}

// stop kills every process and removes the WALs.
func (t *topology) stop() {
	for _, c := range t.children() {
		c.kill()
	}
	t.shards, t.server = nil, nil
	_ = os.RemoveAll(t.dir) // the parent work dir is removed on exit as well
}

// procUsage is a point-in-time reading of the topology's processes.
type procUsage struct {
	serverCPU, shardCPU float64 // seconds consumed so far
	serverRSS, shardRSS float64 // peak MB (shards summed)
}

func (t *topology) usage() (procUsage, error) {
	var u procUsage
	for _, c := range t.children() {
		cpu, err := procCPU(c.pid())
		if err != nil {
			return u, fmt.Errorf("%s: %w", c.name, err)
		}
		rss, err := procPeakRSS(c.pid())
		if err != nil {
			return u, fmt.Errorf("%s: %w", c.name, err)
		}
		if c == t.server {
			u.serverCPU, u.serverRSS = cpu, rss
		} else {
			u.shardCPU += cpu
			u.shardRSS += rss
		}
	}
	return u, nil
}

// walBytes is the total size of the shards' WAL files.
func (t *topology) walBytes() (int64, error) {
	var total int64
	for i := range t.shardAddrs {
		fi, err := os.Stat(t.walPath(i))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// buildBinaries compiles the two server-side programs from the checkout
// the benchmark runs in. Build time is outside every measurement.
func buildBinaries(ctx context.Context, repoRoot, binDir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/covidkg-server", "./cmd/covidkg-shard")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}
