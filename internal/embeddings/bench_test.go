package embeddings

import (
	"math/rand"
	"testing"

	"covidkg/internal/cord19"
)

func benchSentences(n int) [][]string {
	rng := rand.New(rand.NewSource(1))
	vocab := []string{"mask", "vaccine", "fever", "dose", "aerosol", "antibody",
		"cough", "booster", "droplet", "immunity", "ventilator", "spike"}
	out := make([][]string, n)
	for i := range out {
		s := make([]string, 8)
		for j := range s {
			s[j] = vocab[rng.Intn(len(vocab))]
		}
		out[i] = s
	}
	return out
}

// BenchmarkTrainSGNS trains on a 12-word vocabulary, where almost every
// update repeats an output row.
func BenchmarkTrainSGNS(b *testing.B) {
	sents := benchSentences(200)
	cfg := DefaultConfig()
	cfg.Dim = 32
	cfg.Epochs = 1
	cfg.MinCount = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(sents, cfg)
	}
}

// BenchmarkTrainText trains the boot's text model: the title and
// abstract of each of 500 seed-42 publications, tokenized the way
// core.TrainModels tokenizes them, with core's default config.
func BenchmarkTrainText(b *testing.B) {
	var sents [][]string
	for _, p := range cord19.NewGenerator(42).Corpus(500) {
		if s := TermSentence([]string{p.Title + " " + p.Abstract}); len(s) > 1 {
			sents = append(sents, s)
		}
	}
	cfg := DefaultConfig()
	cfg.MinCount = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(sents, cfg)
	}
}

func BenchmarkEmbedText(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MinCount = 1
	w := Train(benchSentences(300), cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.EmbedText("mask vaccine fever dose") == nil {
			b.Fatal("nil embedding")
		}
	}
}

func BenchmarkMostSimilar(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MinCount = 1
	w := Train(benchSentences(300), cfg)
	vec := w.Vector("mask")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MostSimilar(vec, 5)
	}
}
