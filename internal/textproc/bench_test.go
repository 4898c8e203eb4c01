package textproc

import "testing"

const benchSentence = "Vaccination significantly reduced hospitalization rates among elderly patients presenting respiratory symptoms during the pandemic."

func BenchmarkTokenize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(benchSentence)
	}
}

// BenchmarkPorter measures the uncached stemming kernel.
func BenchmarkPorter(b *testing.B) {
	words := Words(benchSentence)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range words {
			porter(w)
		}
	}
}

// BenchmarkStem measures Stem's memo hit path: every word is warmed.
func BenchmarkStem(b *testing.B) {
	words := Words(benchSentence)
	for _, w := range words {
		Stem(w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range words {
			Stem(w)
		}
	}
}

// BenchmarkContentWords measures a warmed call: one allocation, the
// result slice (TestContentWordsAllocs holds it there).
func BenchmarkContentWords(b *testing.B) {
	ContentWords(benchSentence)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ContentWords(benchSentence)
	}
}

func BenchmarkParseQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ParseQuery(`masks "mRNA vaccine" ventilators`)
	}
}
