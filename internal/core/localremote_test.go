package core

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/search"
	"covidkg/internal/shardnet"
)

// remoteSystem builds a System whose publications live in four loopback
// shard servers with WALs, as BenchmarkIngestBatch builds them.
func remoteSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	cfg.ShardAddrs, _ = remoteShards(t)
	s := NewSystem(cfg)
	t.Cleanup(s.Coord.Close)
	return s
}

// remoteShards starts four loopback shard servers with WALs, stopped
// when the test ends, and returns their addresses.
func remoteShards(t *testing.T) ([]string, []*shardnet.Server) {
	t.Helper()
	dir := t.TempDir()
	var addrs []string
	var srvs []*shardnet.Server
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("shard%d", i)
		srv, err := shardnet.NewServer(shardnet.ServerConfig{
			Name: name, WALPath: filepath.Join(dir, name+".wal"),
			Logf: func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, addr.String())
		srvs = append(srvs, srv)
	}
	return addrs, srvs
}

// TestLocalAndRemotePagesIdentical is the local ≡ remote differential:
// the same seeded corpus ingested into the in-process store and into
// four shard server processes must answer every search engine, at every
// page, and every document read with byte-identical JSON.
func TestLocalAndRemotePagesIdentical(t *testing.T) {
	cfg := DefaultConfig()
	local := NewSystem(cfg)
	remote := remoteSystem(t, cfg)
	pubs := cord19.NewGenerator(29).Corpus(200)
	for _, s := range []*System{local, remote} {
		if err := s.IngestPublications(pubs); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	type query struct {
		name string
		run  func(s *System, page int) (search.Page, error)
	}
	all := func(q string) query {
		return query{"all " + q, func(s *System, page int) (search.Page, error) {
			return s.Search.SearchAllContext(ctx, q, page)
		}}
	}
	queries := []query{
		all("vaccine"),
		all("vaccine dose antibody"),
		all(`"viral load"`),
		{"fields", func(s *System, page int) (search.Page, error) {
			return s.Search.SearchFieldsContext(ctx, search.FieldQuery{Title: "study analysis", Abstract: "vaccine"}, page)
		}},
		{"tables", func(s *System, page int) (search.Page, error) {
			return s.Search.SearchTablesContext(ctx, "fever", page)
		}},
	}
	for _, q := range queries {
		for page := 1; page <= 2; page++ {
			var bodies [2][]byte
			for i, s := range []*System{local, remote} {
				p, err := q.run(s, page)
				if err != nil {
					t.Fatalf("%s page %d: %v", q.name, page, err)
				}
				if len(p.Results) == 0 {
					t.Fatalf("%s: empty page %d", q.name, page)
				}
				if bodies[i], err = json.Marshal(p); err != nil {
					t.Fatal(err)
				}
			}
			if string(bodies[0]) != string(bodies[1]) {
				t.Errorf("%s page %d differs:\nlocal  %s\nremote %s", q.name, page, bodies[0], bodies[1])
			}
		}
	}

	for i := 0; i < len(pubs); i += 17 {
		id := pubs[i].ID
		ld, err := local.Pubs.Get(id)
		if err != nil {
			t.Fatalf("local Get %s: %v", id, err)
		}
		rd, err := remote.Pubs.Get(id)
		if err != nil {
			t.Fatalf("remote Get %s: %v", id, err)
		}
		if string(ld.JSON()) != string(rd.JSON()) {
			t.Errorf("Get %s differs:\nlocal  %s\nremote %s", id, ld.JSON(), rd.JSON())
		}
	}
}
