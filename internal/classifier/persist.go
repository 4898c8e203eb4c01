package classifier

import (
	"encoding/json"
	"fmt"

	"covidkg/internal/embeddings"
	"covidkg/internal/mlcore"
)

// ensembleSnapshot is the serialized form of a trained ensemble: the
// configuration, both embedding vocabularies, and every parameter
// tensor. This is what the paper's model-release API (№11/13 in
// Figure 1) hands to downstream users for fine-tuning and reuse.
type ensembleSnapshot struct {
	Config    EnsembleConfig  `json:"config"`
	TermVocab map[string]int  `json:"term_vocab"`
	CellVocab map[string]int  `json:"cell_vocab"`
	TermDim   int             `json:"term_dim"`
	CellDim   int             `json:"cell_dim"`
	Params    json.RawMessage `json:"params"`
	// Batch normalization keeps running statistics that are state, not
	// trainable parameters; inference is wrong without them.
	BNRunMean []float64 `json:"bn_run_mean"`
	BNRunVar  []float64 `json:"bn_run_var"`
}

// headBatchNorm locates the head's batch-norm layer.
func (m *Ensemble) headBatchNorm() *mlcore.BatchNorm {
	for _, l := range m.head.Layers {
		if bn, ok := l.(*mlcore.BatchNorm); ok {
			return bn
		}
	}
	return nil
}

// Export serializes the trained ensemble to a self-contained JSON blob.
func (m *Ensemble) Export() ([]byte, error) {
	params, err := mlcore.ExportParams(m.params)
	if err != nil {
		return nil, fmt.Errorf("classifier: export: %w", err)
	}
	snap := ensembleSnapshot{
		Config:    m.cfg,
		TermVocab: m.termEmb.Vocab,
		CellVocab: m.cellEmb.Vocab,
		TermDim:   m.termEmb.Dim,
		CellDim:   m.cellEmb.Dim,
		Params:    params,
	}
	if bn := m.headBatchNorm(); bn != nil {
		snap.BNRunMean = bn.RunMean
		snap.BNRunVar = bn.RunVar
	}
	return json.Marshal(snap)
}

// ImportEnsemble reconstructs an ensemble from Export's output. The
// model is immediately usable for prediction and may be trained further
// (the paper's "fine-tune and reuse our released pre-trained models").
func ImportEnsemble(data []byte) (*Ensemble, error) {
	var snap ensembleSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("classifier: import: %w", err)
	}
	if snap.TermDim <= 0 || snap.CellDim <= 0 {
		return nil, fmt.Errorf("classifier: import: bad embedding dims %d/%d", snap.TermDim, snap.CellDim)
	}
	// rebuild the architecture via shell Word2Vec models that carry the
	// vocabularies and dimensions; the weights are overwritten below
	termShell := shellW2V(snap.TermVocab, snap.TermDim)
	cellShell := shellW2V(snap.CellVocab, snap.CellDim)
	m, err := NewEnsemble(termShell, cellShell, snap.Config)
	if err != nil {
		return nil, err
	}
	if err := mlcore.ImportParams(m.params, snap.Params); err != nil {
		return nil, fmt.Errorf("classifier: import: %w", err)
	}
	if bn := m.headBatchNorm(); bn != nil && len(snap.BNRunMean) == len(bn.RunMean) {
		copy(bn.RunMean, snap.BNRunMean)
		copy(bn.RunVar, snap.BNRunVar)
	}
	return m, nil
}

// shellW2V builds a zero-weight Word2Vec carrying just a vocabulary and
// dimensionality; NewEnsemble copies its table into the embedding layer
// and ImportParams then overwrites every weight.
func shellW2V(vocab map[string]int, dim int) *embeddings.Word2Vec {
	words := make([]string, len(vocab))
	for w, id := range vocab {
		if id >= 0 && id < len(words) {
			words[id] = w
		}
	}
	return &embeddings.Word2Vec{
		Dim:   dim,
		Vocab: vocab,
		Words: words,
		In:    mlcore.NewMatrix(len(vocab), dim),
		Out:   mlcore.NewMatrix(len(vocab), dim),
	}
}
