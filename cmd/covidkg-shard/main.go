// Command covidkg-shard runs one shard of the networked document tier:
// a single-shard store behind the length-prefixed shardnet
// protocol, with a crash-safe write-ahead log. A covidkg-server started
// with -shard-addrs scatter-gathers over N of these.
//
// Usage:
//
//	covidkg-shard -addr 127.0.0.1:9301 -name shard0 -wal shard0.wal
//
// With -wal, every acknowledged write is fsynced to the log before the
// ack, so a SIGKILL loses nothing: on restart the log replays and the
// shard resumes serving the same data on the same address. Without
// -wal the shard is memory-only (useful for throwaway experiments).
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"covidkg/internal/pprofserve"
	"covidkg/internal/shardnet"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9301", "listen address (port 0 picks an ephemeral port)")
	name := flag.String("name", "shard0", "logical shard name (stable across restarts)")
	wal := flag.String("wal", "", "write-ahead log path; empty disables crash durability")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	if _, err := pprofserve.Start(*pprofAddr, log.Printf); err != nil {
		log.Fatalf("covidkg-shard %s: pprof listener: %v", *name, err)
	}

	srv, err := shardnet.NewServer(shardnet.ServerConfig{
		Name:    *name,
		WALPath: *wal,
		Logf:    log.Printf,
	})
	if err != nil {
		log.Fatalf("covidkg-shard %s: %v", *name, err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("covidkg-shard %s: listen: %v", *name, err)
	}
	log.Printf("covidkg-shard %s serving on %s (wal=%q)", *name, ln.Addr(), *wal)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil {
			log.Fatalf("covidkg-shard %s: serve: %v", *name, err)
		}
	case sig := <-sigCh:
		log.Printf("covidkg-shard %s: received %s, shutting down", *name, sig)
		srv.Close()
	}
}
