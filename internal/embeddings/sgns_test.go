package embeddings

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"covidkg/internal/mlcore"
)

// trainPairwise is the reference SGNS loop: one pair call per output row,
// each negative drawn with rng.Intn just before its pair. update must
// reproduce every float it writes.
func (w *Word2Vec) trainPairwise(sentences [][]string, cfg Config, rng *rand.Rand) {
	if len(w.Words) == 0 {
		return
	}
	enc := make([][]int, 0, len(sentences))
	totalTokens := 0
	for _, s := range sentences {
		ids := make([]int, 0, len(s))
		for _, t := range s {
			if id, ok := w.Vocab[t]; ok {
				ids = append(ids, id)
			}
		}
		if len(ids) > 1 {
			enc = append(enc, ids)
			totalTokens += len(ids)
		}
	}
	steps := 0
	totalSteps := cfg.Epochs * totalTokens
	if totalSteps == 0 {
		return
	}
	sample := func(exclude int) int {
		for tries := 0; tries < 8; tries++ {
			id := int(w.negTable[rng.Intn(len(w.negTable))])
			if id != exclude {
				return id
			}
		}
		return (exclude + 1) % len(w.Words)
	}
	grad := make([]float64, w.Dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, ids := range enc {
			for pos, center := range ids {
				lr := cfg.LR * (1 - float64(steps)/float64(totalSteps+1))
				if lr < cfg.LR*0.0001 {
					lr = cfg.LR * 0.0001
				}
				steps++
				win := 1 + rng.Intn(cfg.Window)
				for off := -win; off <= win; off++ {
					cp := pos + off
					if off == 0 || cp < 0 || cp >= len(ids) {
						continue
					}
					ctx := ids[cp]
					vIn := w.In.Row(center)
					for i := range grad {
						grad[i] = 0
					}
					w.pair(vIn, ctx, 1, lr, grad)
					for n := 0; n < cfg.Negatives; n++ {
						w.pair(vIn, sample(ctx), 0, lr, grad)
					}
					for i := range vIn {
						vIn[i] += grad[i]
					}
				}
			}
		}
	}
}

// pairwiseTrain is Train with trainPairwise as its loop. Train with no
// epochs builds the vocabulary, the initial vectors and the negative
// table; the generator is replayed past the initial vectors, to where
// Train's loop takes it over.
func pairwiseTrain(sentences [][]string, cfg Config) *Word2Vec {
	setup := cfg
	setup.Epochs = 0
	w := Train(sentences, setup)
	w.trainPairwise(sentences, cfg, replayInit(cfg.Seed, len(w.Words), w.Dim))
	return w
}

// pairwiseFineTune is FineTune with trainPairwise as its loop, set up the
// same way as pairwiseTrain.
func (w *Word2Vec) pairwiseFineTune(sentences [][]string, cfg Config) {
	setup := cfg
	setup.Epochs = 0
	known := len(w.Words)
	w.FineTune(sentences, setup)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	if len(w.Words) > known {
		rng = replayInit(cfg.Seed+1, len(w.Words), w.Dim)
	}
	w.trainPairwise(sentences, cfg, rng)
}

// replayInit returns a generator seeded with seed that has drawn one
// vocab × dim matrix of initial word vectors.
func replayInit(seed int64, vocab, dim int) *rand.Rand {
	rng := rand.New(rand.NewSource(seed))
	mlcore.RandMatrix(vocab, dim, 0.5/float64(dim), rng)
	return rng
}

// pair applies one (center, context/negative) SGNS update to the output
// vector and accumulates the input-vector gradient.
func (w *Word2Vec) pair(vIn []float64, outID int, label float64, lr float64, grad []float64) {
	vOut := w.Out.Row(outID)
	score := mlcore.Sigmoid(mlcore.Dot(vIn, vOut))
	g := lr * (label - score)
	for i := range vOut {
		grad[i] += g * vOut[i]
		vOut[i] += g * vIn[i]
	}
}

// skewedCorpus draws sentences of 2–12 words from w0..w{n-1}, low ids
// far more often, so the negative table is skewed like a real corpus's.
func skewedCorpus(rng *rand.Rand, n, sentences int) [][]string {
	out := make([][]string, sentences)
	for i := range out {
		s := make([]string, 2+rng.Intn(11))
		for j := range s {
			u := rng.Float64()
			s[j] = fmt.Sprintf("w%d", int(float64(n)*u*u))
		}
		out[i] = s
	}
	return out
}

// TestSGNSUpdateMatchesPairwise holds Train then FineTune to the
// one-pair-at-a-time loop, bit for bit. Two- and three-word vocabularies
// make repeated output rows within one update the common case; the
// 200-word one makes runs of distinct rows long. The fine-tuning corpus
// draws from two more words, so fine-tuning also grows the vocabulary.
func TestSGNSUpdateMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, vocab := range []int{2, 3, 200} {
		for _, dim := range []int{1, 7, 32} {
			for _, neg := range []int{0, 1, 5, 9} {
				for _, win := range []int{1, 3, 4} {
					cfg := Config{Dim: dim, Window: win, Negatives: neg, Epochs: 2,
						LR: 0.025 + 0.1*rng.Float64(), MinCount: 1, Seed: rng.Int63()}
					sents := 10 + vocab/2
					pre := skewedCorpus(rng, vocab, sents)
					ft := skewedCorpus(rng, vocab+2, sents)

					got := Train(pre, cfg)
					got.FineTune(ft, cfg)

					want := pairwiseTrain(pre, cfg)
					want.pairwiseFineTune(ft, cfg)

					name := fmt.Sprintf("vocab=%d dim=%d neg=%d win=%d", vocab, dim, neg, win)
					sameBits(t, name+" In", got.In, want.In)
					sameBits(t, name+" Out", got.Out, want.Out)
				}
			}
		}
	}
}

func sameBits(t *testing.T, name string, got, want *mlcore.Matrix) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d floats, want %d", name, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: float %d is %v, want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}
