package shardnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"covidkg/internal/docstore"
)

// Environment keys that turn this test binary into a shard server
// child, so a test can spawn, SIGKILL and restart real shard processes.
const (
	envChild      = "COVIDKG_SHARDNET_CHILD"
	envChildAddr  = "COVIDKG_SHARDNET_ADDR"
	envChildWAL   = "COVIDKG_SHARDNET_WAL"
	envChildName  = "COVIDKG_SHARDNET_NAME"
	addrLinePfx   = "SHARDNET_LISTENING "
	childReadyCap = 10 * time.Second
)

func TestMain(m *testing.M) {
	MaybeRunChild()
	os.Exit(m.Run())
}

// MaybeRunChild turns the current process into a shard server when the
// child environment is set, never returning in that case (the process
// serves until killed). The child prints "SHARDNET_LISTENING <addr>" on
// stdout once bound, which is how the parent learns an ephemeral port.
func MaybeRunChild() {
	if os.Getenv(envChild) == "" {
		return
	}
	name := os.Getenv(envChildName)
	srv, err := NewServer(ServerConfig{
		Name:    name,
		WALPath: os.Getenv(envChildWAL),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardnet child %s: %v\n", name, err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", os.Getenv(envChildAddr))
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardnet child %s: listen: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("%s%s\n", addrLinePfx, ln.Addr().String())
	os.Stdout.Sync()
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintf(os.Stderr, "shardnet child %s: serve: %v\n", name, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// shardProc is a shard server running as a child process.
type shardProc struct {
	name    string
	addr    string // resolved address, reused by restart
	walPath string
	cmd     *exec.Cmd
}

// spawnShardProc re-execs the test binary as a shard server child. addr
// may be "127.0.0.1:0"; the resolved port is kept so a coordinator's
// shard map stays valid across a restart.
func spawnShardProc(t *testing.T, name, walPath string) *shardProc {
	t.Helper()
	p := &shardProc{name: name, addr: "127.0.0.1:0", walPath: walPath}
	if err := p.start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.kill)
	return p
}

func (p *shardProc) start() error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(),
		envChild+"=1",
		envChildAddr+"="+p.addr,
		envChildWAL+"="+p.walPath,
		envChildName+"="+p.name,
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn %s: %w", p.name, err)
	}

	// Wait for the bind line; keep draining stdout afterwards so the
	// child never blocks on the pipe.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, addrLinePfx) {
				select {
				case addrCh <- strings.TrimPrefix(line, addrLinePfx):
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
	}()

	select {
	case p.addr = <-addrCh:
	case <-time.After(childReadyCap):
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("shard process %s did not report its address within %s", p.name, childReadyCap)
	}
	p.cmd = cmd
	return nil
}

// kill SIGKILLs the process — no shutdown hooks, no flush; exactly the
// crash the WAL exists for — and reaps it.
func (p *shardProc) kill() {
	if p.cmd == nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.cmd = nil
}

// TestShardProcessKillRestart SIGKILLs one of two shard processes while
// a writer is mid-stream, restarts it on the same address and WAL, and
// waits for the breaker to re-admit it. Every acked write must then
// read back (the WAL replayed it) and no rejected write may have been
// applied; indeterminate writes — the connection died after the frame
// was sent — may have gone either way and are excluded from the audit.
func TestShardProcessKillRestart(t *testing.T) {
	dir := t.TempDir()
	procs := make([]*shardProc, 2)
	addrs := make([]string, len(procs))
	for i := range procs {
		procs[i] = spawnShardProc(t, fmt.Sprintf("shard%d", i), filepath.Join(dir, fmt.Sprintf("shard%d.wal", i)))
		addrs[i] = procs[i].addr
	}
	co := dialCoord(t, fastCfg(), addrs...)

	var (
		mu                             sync.Mutex
		acked, rejected, indeterminate []string
		victimFailures                 int
		victim                         = co.ShardOfID("seed000")
	)
	write := func(id string, i int) {
		_, err := co.Insert(pubDoc(id, i))
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			acked = append(acked, id)
		case errors.Is(err, ErrIndeterminate):
			indeterminate = append(indeterminate, id)
		default:
			rejected = append(rejected, id)
		}
		if err != nil && co.ShardOfID(id) == victim {
			victimFailures++
		}
	}
	for i := 0; i < 20; i++ {
		write(fmt.Sprintf("seed%03d", i), i)
	}
	if len(acked) != 20 {
		t.Fatalf("healthy tier acked %d of 20 seed writes", len(acked))
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			write(fmt.Sprintf("live%04d", i), i)
		}
	}()
	var once sync.Once
	stopWriter := func() { once.Do(func() { close(stop); <-done }) }
	t.Cleanup(stopWriter)
	// waitFor polls cond under mu until it holds or 10s pass.
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			mu.Lock()
			ok := cond()
			mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("live writes to be acked", func() bool { return len(acked) >= 30 })
	procs[victim].kill()
	waitFor("a write to the killed shard to fail", func() bool { return victimFailures > 0 })
	if err := procs[victim].start(); err != nil {
		t.Fatalf("restart shard %d: %v", victim, err)
	}
	waitFor("the breaker to re-admit the restarted shard", func() bool {
		_, err := co.Get("seed000")
		return !errors.Is(err, docstore.ErrShardUnavailable)
	})
	stopWriter()

	mu.Lock()
	defer mu.Unlock()
	audit := docstore.AuditWrites(co, acked, rejected)
	if !audit.Clean() {
		t.Fatalf("write audit after SIGKILL + restart: %+v", audit)
	}
	t.Logf("%d acked, %d rejected, %d indeterminate; %d writes to shard %d failed while it was down",
		len(acked), len(rejected), len(indeterminate), victimFailures, victim)
}
