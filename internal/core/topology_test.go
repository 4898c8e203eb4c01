package core

import (
	"bytes"
	"testing"
)

// buildArtifact is what a build publishes: the knowledge graph's JSON
// and every exported model blob.
type buildArtifact struct {
	graph  []byte
	models []ExportedModel
}

func artifactOf(t *testing.T, s *System) buildArtifact {
	t.Helper()
	graph, err := s.Graph.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	models, err := s.ExportModels()
	if err != nil {
		t.Fatal(err)
	}
	return buildArtifact{graph, models}
}

// firstModelDiff names the first model whose name or bytes differ
// between a and b, or returns "" when they are identical.
func firstModelDiff(a, b []ExportedModel) string {
	if len(a) != len(b) {
		return "the model count"
	}
	for i := range a {
		if a[i].Name != b[i].Name || !bytes.Equal(a[i].Data, b[i].Data) {
			return a[i].Name
		}
	}
	return ""
}

// TestBuildIsTopologyIndependent: one BuildSpec builds a byte-identical
// knowledge graph and byte-identical models over 1, 4 and 8 in-process
// shards and over four shard servers, because every scan the build
// makes reads the corpus in id order, whatever the placement.
func TestBuildIsTopologyIndependent(t *testing.T) {
	spec := BuildSpec{Pubs: 300, Seed: 42}
	cfg := DefaultConfig()
	cfg.Seed = 42
	topologies := []struct {
		name   string
		shards int
		remote bool
	}{{"1 shard", 1, false}, {"4 shards", 4, false}, {"8 shards", 8, false}, {"4 shard servers", 4, true}}
	var want buildArtifact
	for i, tp := range topologies {
		cfg.Shards = tp.shards
		var s *System
		if tp.remote {
			s = remoteSystem(t, cfg)
		} else {
			s = NewSystem(cfg)
		}
		if _, err := s.Build(spec); err != nil {
			t.Fatal(err)
		}
		got := artifactOf(t, s)
		if i == 0 {
			want = got
			continue
		}
		if !bytes.Equal(got.graph, want.graph) {
			t.Errorf("%s: knowledge_graph.json differs from %s's", tp.name, topologies[0].name)
		}
		if m := firstModelDiff(got.models, want.models); m != "" {
			t.Errorf("%s: %s differs from %s's", tp.name, m, topologies[0].name)
		}
	}
}

// TestRestoreUnderOtherShardCountRetrains: a checkpoint written over 4
// shards and restored over 8 retrains byte-identical models.
func TestRestoreUnderOtherShardCountRetrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.TrainTables = 60
	cfg.W2V.Epochs = 2
	cfg.VocabSize = 1500
	s := NewSystem(cfg)
	if _, err := s.Build(BuildSpec{Pubs: 60, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 8
	r := NewSystem(cfg)
	if _, err := r.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := r.TrainModels(); err != nil {
		t.Fatal(err)
	}
	if m := firstModelDiff(artifactOf(t, r).models, artifactOf(t, s).models); m != "" {
		t.Fatalf("%s retrained over 8 shards differs from the 4-shard build's", m)
	}
}
