// Package covidkg is the public API of the COVIDKG system — a Go
// reproduction of "COVIDKG.ORG: a Web-scale COVID-19 Interactive,
// Trustworthy Knowledge Graph" (EDBT 2023).
//
// The system ingests research publications into a sharded JSON document
// store, trains tabular and text embeddings plus metadata classifiers
// (an SVM over positional features and a BiGRU ensemble), hosts three
// aggregation-pipeline search engines, and builds an interactive
// hierarchical knowledge graph by fusing subtrees extracted from table
// metadata, with a human review queue and correction learning.
//
// Quickstart:
//
//	sys := covidkg.New(covidkg.DefaultConfig())
//	pubs := covidkg.GenerateCorpus(500, 42)       // CORD-19 substitute
//	_ = sys.Ingest(pubs)
//	_, _ = sys.Train()
//	_, _ = sys.BuildGraph()
//	ctx := context.Background()
//	page, _ := sys.SearchAllContext(ctx, "vaccine side effects", 1)
//	hits, _ := sys.GraphSearchContext(ctx, "vaccines")
package covidkg

import (
	"context"

	"covidkg/internal/bias"
	"covidkg/internal/cluster"
	"covidkg/internal/cord19"
	"covidkg/internal/core"
	"covidkg/internal/kg"
	"covidkg/internal/metaprofile"
	"covidkg/internal/search"
)

// Config configures a System. It is the core configuration re-exported;
// see DefaultConfig for sensible values.
type Config = core.Config

// DefaultConfig returns a configuration sized for laptop-scale corpora.
func DefaultConfig() Config { return core.DefaultConfig() }

// Publication is a synthetic CORD-19-style publication with ground truth
// attached.
type Publication = cord19.Publication

// Page is one page of ranked search results.
type Page = search.Page

// Result is one ranked search hit.
type Result = search.Result

// Snippet is a highlighted field excerpt inside a Result.
type Snippet = search.Snippet

// FieldQuery addresses the title/abstract/caption engine (§2.1.1).
type FieldQuery = search.FieldQuery

// GraphHit is a knowledge-graph search result with its root path.
type GraphHit = kg.SearchHit

// GraphNode is one KG node.
type GraphNode = kg.Node

// Subtree is extracted hierarchical knowledge awaiting fusion.
type Subtree = kg.Subtree

// NewSubtree builds a root-plus-leaves subtree, the common shape
// extracted from a table column.
func NewSubtree(label string, leaves ...string) *Subtree {
	return kg.NewSubtree(label, leaves...)
}

// FusionResult reports what fusion did with a subtree.
type FusionResult = kg.FusionResult

// ReviewItem is a fusion queued for expert review.
type ReviewItem = kg.ReviewItem

// Profile is a multi-layered meta-profile (Figure 6).
type Profile = metaprofile.Profile

// TrainStats summarizes model training.
type TrainStats = core.TrainStats

// BuildStats summarizes a knowledge-graph build.
type BuildStats = core.BuildStats

// ClusterResult is a topical clustering outcome.
type ClusterResult = cluster.Result

// GenerateCorpus produces n deterministic synthetic publications — the
// offline stand-in for the CORD-19 download.
func GenerateCorpus(n int, seed int64) []*Publication {
	return cord19.NewGenerator(seed).Corpus(n)
}

// GenerateSideEffectPapers produces side-effect papers shaped like the
// sources of Figure 6.
func GenerateSideEffectPapers(n int, seed int64, vaccines []string) []*Publication {
	g := cord19.NewGenerator(seed)
	out := make([]*Publication, n)
	for i := range out {
		out[i] = g.SideEffectPaper(vaccines)
	}
	return out
}

// System is a running COVIDKG instance.
type System struct {
	inner *core.System
}

// New creates a system with the expert-seeded knowledge graph and an
// empty store.
func New(cfg Config) *System {
	return &System{inner: core.NewSystem(cfg)}
}

// Ingest stores publications and indexes them for search.
func (s *System) Ingest(pubs []*Publication) error {
	return s.inner.IngestPublications(pubs)
}

// Train fits embeddings, vocabulary, and classifiers; call after
// ingestion so fine-tuning sees the corpus.
func (s *System) Train() (TrainStats, error) { return s.inner.TrainModels() }

// BuildGraph classifies stored tables, extracts subtrees, and fuses them
// into the knowledge graph. Call after Train.
func (s *System) BuildGraph() (BuildStats, error) { return s.inner.BuildKG() }

// Refresh ingests newly published papers and incrementally enriches the
// knowledge graph from them alone — the paper's mechanism for keeping
// the KG up to date as literature arrives.
func (s *System) Refresh(pubs []*Publication) (BuildStats, error) {
	return s.inner.Refresh(pubs)
}

// SearchAllContext queries every publication field (§2.1.2);
// cancellation or deadline expiry abandons the query mid-pipeline.
func (s *System) SearchAllContext(ctx context.Context, query string, page int) (Page, error) {
	return s.inner.Search.SearchAllContext(ctx, query, page)
}

// SearchFieldsContext queries title/abstract/caption inclusively
// (§2.1.1).
func (s *System) SearchFieldsContext(ctx context.Context, q FieldQuery, page int) (Page, error) {
	return s.inner.Search.SearchFieldsContext(ctx, q, page)
}

// SearchTablesContext queries table captions and data (§2.1.3).
func (s *System) SearchTablesContext(ctx context.Context, query string, page int) (Page, error) {
	return s.inner.Search.SearchTablesContext(ctx, query, page)
}

// GraphSearchContext finds KG nodes matching the query, each with its
// full path from the root for highlighting.
func (s *System) GraphSearchContext(ctx context.Context, query string) ([]GraphHit, error) {
	return s.inner.Graph.SearchContext(ctx, query)
}

// GraphRoot returns the KG root node.
func (s *System) GraphRoot() GraphNode { return s.inner.Graph.Root() }

// GraphChildren lists a node's children.
func (s *System) GraphChildren(id string) ([]GraphNode, error) {
	return s.inner.Graph.Children(id)
}

// GraphSize returns the node count.
func (s *System) GraphSize() int { return s.inner.Graph.Size() }

// GraphJSON serializes the knowledge graph.
func (s *System) GraphJSON() ([]byte, error) { return s.inner.Graph.MarshalJSON() }

// Fuse integrates one extracted subtree (term match → embedding match →
// review queue).
func (s *System) Fuse(sub *Subtree) FusionResult { return s.inner.Fuser.Fuse(sub) }

// PendingReviews lists fusions awaiting the expert.
func (s *System) PendingReviews() []ReviewItem { return s.inner.Fuser.Pending() }

// ApproveReview applies a queued subtree under the given node and
// records the correction for future automatic fusion.
func (s *System) ApproveReview(reviewID int, targetNodeID string) error {
	return s.inner.Fuser.Approve(reviewID, targetNodeID)
}

// RejectReview discards a queued subtree.
func (s *System) RejectReview(reviewID int) error { return s.inner.Fuser.Reject(reviewID) }

// TopicClusters groups stored publications into k topics; returns the
// clustering with aligned publication ids and ground-truth topic names.
func (s *System) TopicClusters(ctx context.Context, k int) (*ClusterResult, []string, []string, error) {
	return s.inner.TopicClusters(ctx, k)
}

// MetaProfile fuses observations from every profile-shaped stored table
// into one layered profile. The scan stops with ctx.
func (s *System) MetaProfile(ctx context.Context, name string) (*Profile, error) {
	return s.inner.BuildMetaProfile(ctx, name)
}

// PublicationCount returns the number of stored publications.
func (s *System) PublicationCount() int { return s.inner.Pubs.Count() }

// BiasReport is a corpus bias audit (the title's "interrogated for
// bias").
type BiasReport = bias.Report

// AuditBias interrogates the stored corpus for topical imbalance,
// source concentration, temporal skew, and vocabulary dominance.
func (s *System) AuditBias(ctx context.Context) (*BiasReport, error) { return s.inner.AuditBias(ctx) }

// ExportedModel is a released model artifact.
type ExportedModel = core.ExportedModel

// ExportModels serializes trained models and embeddings for reuse — the
// paper's released-models API (№11/13 in Figure 1).
func (s *System) ExportModels() ([]ExportedModel, error) { return s.inner.ExportModels() }

// Internal exposes the underlying core system for advanced callers
// (servers, experiment harnesses) that need direct subsystem access.
func (s *System) Internal() *core.System { return s.inner }
