package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/jsondoc"
	"covidkg/internal/shardnet"
)

// BenchmarkIngestBatch times what one POST /api/v1/publications flush
// costs the server tier — a 32-document IngestDocs plus the EnrichNew
// that follows it — against four shard servers with fsynced WALs, at two
// store sizes. The batch is the same size at both, so the two timings
// should agree: ingest that lists or scans the store shows up as the
// larger store costing more. Its text embeddings are trained on 50
// documents, which leaves most KG labels unembeddable, so it barely
// sees the embedding scans of fusion; BenchmarkFuseUnmatched in
// internal/kg measures those.
func BenchmarkIngestBatch(b *testing.B) {
	for _, stored := range []int{500, 4000} {
		b.Run(fmt.Sprintf("stored=%d", stored), func(b *testing.B) {
			dir := b.TempDir()
			var addrs []string
			for i := 0; i < 4; i++ {
				name := fmt.Sprintf("shard%d", i)
				srv, err := shardnet.NewServer(shardnet.ServerConfig{
					Name: name, WALPath: filepath.Join(dir, name+".wal"),
					Logf: func(string, ...any) {},
				})
				if err != nil {
					b.Fatal(err)
				}
				addr, err := srv.Start("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { srv.Close() })
				addrs = append(addrs, addr.String())
			}
			cfg := DefaultConfig()
			cfg.TrainTables = 60
			cfg.W2V.Epochs = 2
			cfg.VocabSize = 1500
			cfg.ShardAddrs = addrs
			s := NewSystem(cfg)
			b.Cleanup(s.Coord.Close)

			// Train on a small corpus, then load the rest: model quality is
			// not what is measured, and training over 4000 documents would
			// dominate the set-up.
			g := cord19.NewGenerator(11)
			if err := s.IngestPublications(g.Corpus(50)); err != nil {
				b.Fatal(err)
			}
			if _, err := s.TrainModels(); err != nil {
				b.Fatal(err)
			}
			if err := s.IngestPublications(g.Corpus(stored - 50)); err != nil {
				b.Fatal(err)
			}
			s.BuildKG()

			fresh := cord19.NewGenerator(12)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := make([]jsondoc.Doc, 32)
				for j, p := range fresh.Corpus(len(batch)) {
					p.ID = fmt.Sprintf("bench-%d-%06d", stored, i*len(batch)+j)
					batch[j] = p.Doc()
				}
				b.StartTimer()
				if rep := s.IngestDocs(batch); rep.Failed > 0 {
					b.Fatal(rep.Err())
				}
				s.EnrichNew()
			}
		})
	}
}
