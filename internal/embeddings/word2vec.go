// Package embeddings implements the Word2Vec skip-gram model with
// negative sampling [Mikolov et al. 2013] and the paper's tabular
// embeddings: parallel term-level and cell-level representations of
// table tuples (§3.6, Figure 3). The paper pre-trains on WDC and CORD-19
// and fine-tunes end-to-end on the target corpus; Train and FineTune
// mirror that regime.
package embeddings

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"covidkg/internal/mlcore"
	"covidkg/internal/preprocess"
	"covidkg/internal/textproc"
)

// Config controls Word2Vec training.
type Config struct {
	Dim       int     // embedding dimensionality
	Window    int     // context window radius
	Negatives int     // negative samples per positive pair
	Epochs    int     // passes over the corpus
	LR        float64 // initial learning rate (linearly decayed)
	MinCount  int     // drop words rarer than this
	Seed      int64
}

// DefaultConfig returns a small, fast configuration suitable for the
// synthetic corpora.
func DefaultConfig() Config {
	return Config{Dim: 32, Window: 4, Negatives: 5, Epochs: 5, LR: 0.05, MinCount: 2, Seed: 1}
}

// Word2Vec holds trained input (word) and output (context) embeddings.
type Word2Vec struct {
	Dim   int
	Vocab map[string]int
	Words []string
	In    *mlcore.Matrix // vocab × dim word vectors
	Out   *mlcore.Matrix // vocab × dim context vectors

	counts   []int
	negTable []int32
}

// Train builds a vocabulary from sentences and trains skip-gram with
// negative sampling. Sentences are pre-tokenized (already stemmed or
// substituted as the caller requires).
func Train(sentences [][]string, cfg Config) *Word2Vec {
	w := &Word2Vec{Dim: cfg.Dim, Vocab: map[string]int{}}
	counts := map[string]int{}
	for _, s := range sentences {
		for _, t := range s {
			counts[t]++
		}
	}
	var words []string
	for t, c := range counts {
		if c >= cfg.MinCount {
			words = append(words, t)
		}
	}
	sort.Strings(words) // deterministic ids
	w.Words = words
	w.counts = make([]int, len(words))
	for i, t := range words {
		w.Vocab[t] = i
		w.counts[i] = counts[t]
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w.In = mlcore.RandMatrix(len(words), cfg.Dim, 0.5/float64(cfg.Dim), rng)
	w.Out = mlcore.NewMatrix(len(words), cfg.Dim)
	w.buildNegTable()
	w.train(sentences, cfg, rng)
	return w
}

// FineTune continues training the existing vectors on a new corpus,
// extending the vocabulary with that corpus's frequent new words.
func (w *Word2Vec) FineTune(sentences [][]string, cfg Config) {
	counts := map[string]int{}
	for _, s := range sentences {
		for _, t := range s {
			counts[t]++
		}
	}
	var fresh []string
	for t, c := range counts {
		if c >= cfg.MinCount {
			if _, known := w.Vocab[t]; !known {
				fresh = append(fresh, t)
			}
		}
	}
	sort.Strings(fresh)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	if len(fresh) > 0 {
		oldN := len(w.Words)
		newIn := mlcore.RandMatrix(oldN+len(fresh), w.Dim, 0.5/float64(w.Dim), rng)
		newOut := mlcore.NewMatrix(oldN+len(fresh), w.Dim)
		copy(newIn.Data[:oldN*w.Dim], w.In.Data)
		copy(newOut.Data[:oldN*w.Dim], w.Out.Data)
		w.In, w.Out = newIn, newOut
		for i, t := range fresh {
			w.Vocab[t] = oldN + i
			w.Words = append(w.Words, t)
			w.counts = append(w.counts, counts[t])
		}
	}
	// refresh counts of known words so the negative table tracks the
	// combined corpus
	for t, c := range counts {
		if id, ok := w.Vocab[t]; ok {
			w.counts[id] += c
		}
	}
	w.buildNegTable()
	w.train(sentences, cfg, rng)
}

const negTableSize = 1 << 16

// buildNegTable constructs the unigram^(3/4) sampling table.
func (w *Word2Vec) buildNegTable() {
	if len(w.Words) == 0 {
		w.negTable = nil
		return
	}
	total := 0.0
	pow := make([]float64, len(w.counts))
	for i, c := range w.counts {
		pow[i] = math.Pow(float64(c), 0.75)
		total += pow[i]
	}
	w.negTable = make([]int32, negTableSize)
	idx := 0
	cum := pow[0] / total
	for i := range w.negTable {
		w.negTable[i] = int32(idx)
		if float64(i)/negTableSize > cum && idx < len(pow)-1 {
			idx++
			cum += pow[idx] / total
		}
	}
}

func (w *Word2Vec) sampleNegative(rng *rand.Rand, exclude int) int {
	for tries := 0; tries < 8; tries++ {
		id := int(w.negTable[int(rng.Int63()>>32)&(negTableSize-1)]) // what rng.Intn(negTableSize) draws
		if id != exclude {
			return id
		}
	}
	return (exclude + 1) % len(w.Words)
}

func (w *Word2Vec) train(sentences [][]string, cfg Config, rng *rand.Rand) {
	if len(w.Words) == 0 {
		return
	}
	// Pre-encode sentences to ids.
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
	grad := make([]float64, w.Dim)
	ids := make([]int, 1+max(cfg.Negatives, 0)) // the context, then the negatives
	dots := make([]float64, len(ids)+3)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, sent := range enc {
			for pos, center := range sent {
				lr := cfg.LR * (1 - float64(steps)/float64(totalSteps+1))
				if lr < cfg.LR*0.0001 {
					lr = cfg.LR * 0.0001
				}
				steps++
				win := 1 + rng.Intn(cfg.Window)
				for off := -win; off <= win; off++ {
					cp := pos + off
					if off == 0 || cp < 0 || cp >= len(sent) {
						continue
					}
					ids[0] = sent[cp]
					for n := 1; n < len(ids); n++ {
						ids[n] = w.sampleNegative(rng, ids[0])
					}
					w.update(w.In.Row(center), ids, lr, grad, dots)
				}
			}
		}
	}
}

// update applies one SGNS step of center vector v against output rows
// ids, the context first and then the negatives. It splits ids into maximal
// runs of distinct rows: no dot product in a run reads another's write, so
// they are taken four side by side, each summed in index order, before
// the run's updates are applied in order, element by element. The floats
// are bit for bit those of one (dot, update) per row in turn. grad and
// dots are scratch; dots holds len(ids)+3.
func (w *Word2Vec) update(v []float64, ids []int, lr float64, grad, dots []float64) {
	clear(grad)
	for start, end := 0, 1; start < len(ids); start, end = end, end+1 {
		for end < len(ids) && !slices.Contains(ids[start:end], ids[end]) {
			end++
		}
		// a short group of four repeats the run's last row; its extra dots
		// land in slack that the next run overwrites
		row := func(j int) []float64 { return w.Out.Row(ids[min(j, end-1)])[:len(v)] }
		for j := start; j < end; j += 4 {
			a, b, c, d := row(j), row(j+1), row(j+2), row(j+3)
			var sa, sb, sc, sd float64 // four mlcore.Dot chains side by side
			for i, x := range v {
				sa += x * a[i]
				sb += x * b[i]
				sc += x * c[i]
				sd += x * d[i]
			}
			dots[j], dots[j+1], dots[j+2], dots[j+3] = sa, sb, sc, sd
		}
		label := 0.0 // 1 for the context ids[0], 0 for a negative
		if start == 0 {
			label = 1
		}
		for j := start; j < end; j++ {
			dots[j] = lr * (label - mlcore.Sigmoid(dots[j]))
			label = 0
		}
		j := start
		for ; j+1 < end; j += 2 { // two rows a pass load and store grad[i] once
			g0, o0, g1, o1 := dots[j], row(j), dots[j+1], row(j+1)
			for i, x := range v {
				a, b := o0[i], o1[i]
				grad[i] = grad[i] + g0*a + g1*b
				o0[i] = a + g0*x
				o1[i] = b + g1*x
			}
		}
		if j < end {
			g, o := dots[j], row(j)
			for i, x := range v {
				grad[i] += g * o[i]
				o[i] += g * x
			}
		}
	}
	for i := range v {
		v[i] += grad[i]
	}
}

// Has reports whether word is in the vocabulary.
func (w *Word2Vec) Has(word string) bool {
	_, ok := w.Vocab[word]
	return ok
}

// Vector returns the word's embedding, or nil for out-of-vocabulary
// words.
func (w *Word2Vec) Vector(word string) []float64 {
	id, ok := w.Vocab[word]
	if !ok {
		return nil
	}
	return w.In.Row(id)
}

// Similarity returns the cosine similarity of two words (0 when either
// is out of vocabulary).
func (w *Word2Vec) Similarity(a, b string) float64 {
	va, vb := w.Vector(a), w.Vector(b)
	if va == nil || vb == nil {
		return 0
	}
	return mlcore.CosineSimilarity(va, vb)
}

// Match is one nearest-neighbour result.
type Match struct {
	Word string
	Sim  float64
}

// MostSimilar returns the k words nearest to the given vector.
func (w *Word2Vec) MostSimilar(vec []float64, k int) []Match {
	if vec == nil || k <= 0 {
		return nil
	}
	out := make([]Match, 0, len(w.Words))
	for i, word := range w.Words {
		out = append(out, Match{Word: word, Sim: mlcore.CosineSimilarity(vec, w.In.Row(i))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].Word < out[j].Word
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Neighbors returns the k nearest words to word, excluding itself.
func (w *Word2Vec) Neighbors(word string, k int) []Match {
	vec := w.Vector(word)
	if vec == nil {
		return nil
	}
	all := w.MostSimilar(vec, k+1)
	out := all[:0]
	for _, m := range all {
		if m.Word != word {
			out = append(out, m)
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// EmbedText averages the vectors of a text's content words; returns nil
// when nothing is in vocabulary. This is the document/label embedding
// used by topical clustering and KG fusion.
func (w *Word2Vec) EmbedText(text string) []float64 {
	return w.EmbedTokens(textproc.ContentWords(text))
}

// EmbedTokens averages the vectors of pre-tokenized terms.
func (w *Word2Vec) EmbedTokens(tokens []string) []float64 {
	var acc []float64
	n := 0
	for _, t := range tokens {
		v := w.Vector(t)
		if v == nil {
			continue
		}
		if acc == nil {
			acc = make([]float64, len(v))
		}
		for i, x := range v {
			acc[i] += x
		}
		n++
	}
	if n == 0 {
		return nil
	}
	for i := range acc {
		acc[i] /= float64(n)
	}
	return acc
}

// ---------------------------------------------------------------- tabular

// CellToken canonicalizes a table cell into a single token for
// cell-level embeddings: §3.4 numeric substitution, lowercasing, and
// underscore-joining.
func CellToken(cell string) string {
	return cellToken(cellWords(cell))
}

// cellWords is a cell's term-level tokens: §3.4 substitution, then
// tokenization.
func cellWords(cell string) []string {
	return textproc.Words(preprocess.Substitute(cell))
}

// cellToken joins a cell's term-level tokens into its cell-level token.
func cellToken(words []string) string {
	if len(words) == 0 {
		return "_empty_"
	}
	return strings.Join(words, "_")
}

// TermSentence flattens one table row into its term-level token
// sequence: each cell is numeric-substituted then tokenized.
func TermSentence(row []string) []string {
	var out []string
	for _, cell := range row {
		out = append(out, cellWords(cell)...)
	}
	return out
}

// CellSentence maps one table row to its cell-level token sequence.
func CellSentence(row []string) []string {
	out := make([]string, len(row))
	for i, cell := range row {
		out[i] = CellToken(cell)
	}
	return out
}

// TableSentences converts tables to both term- and cell-level training
// sentences, the two parallel corpora the Figure 3 model embeds. Each
// cell is substituted and tokenized once for both: row by row, the
// result equals TermSentence (empty sentences dropped) and CellSentence.
func TableSentences(tables [][][]string) (termSents, cellSents [][]string) {
	for _, rows := range tables {
		for _, row := range rows {
			var terms []string
			cells := make([]string, len(row))
			for i, cell := range row {
				words := cellWords(cell)
				terms = append(terms, words...)
				cells[i] = cellToken(words)
			}
			if len(terms) > 0 {
				termSents = append(termSents, terms)
			}
			cellSents = append(cellSents, cells)
		}
	}
	return termSents, cellSents
}

// String renders a brief summary.
func (w *Word2Vec) String() string {
	return fmt.Sprintf("word2vec(vocab=%d dim=%d)", len(w.Words), w.Dim)
}
