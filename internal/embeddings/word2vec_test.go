package embeddings

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"covidkg/internal/cord19"
	"covidkg/internal/mlcore"
)

// clusterCorpus builds sentences where words within a cluster co-occur
// and words across clusters never do, so embeddings must separate them.
func clusterCorpus(rng *rand.Rand, n int) [][]string {
	clusters := [][]string{
		{"fever", "cough", "fatigue", "headache", "chills"},
		{"vaccine", "dose", "booster", "immunity", "antibody"},
		{"mask", "aerosol", "droplet", "ventilation", "distancing"},
	}
	var out [][]string
	for i := 0; i < n; i++ {
		c := clusters[rng.Intn(len(clusters))]
		sent := make([]string, 6)
		for j := range sent {
			sent[j] = c[rng.Intn(len(c))]
		}
		out = append(out, sent)
	}
	return out
}

func trained(t *testing.T) *Word2Vec {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	cfg := DefaultConfig()
	cfg.Dim = 16
	cfg.Epochs = 8
	w := Train(clusterCorpus(rng, 600), cfg)
	if len(w.Words) == 0 {
		t.Fatal("empty vocabulary")
	}
	return w
}

func TestTrainSeparatesClusters(t *testing.T) {
	w := trained(t)
	within := w.Similarity("fever", "cough")
	across := w.Similarity("fever", "mask")
	if within <= across {
		t.Fatalf("within-cluster sim %v <= across-cluster %v", within, across)
	}
	within2 := w.Similarity("vaccine", "booster")
	across2 := w.Similarity("vaccine", "aerosol")
	if within2 <= across2 {
		t.Fatalf("within %v <= across %v", within2, across2)
	}
}

func TestDeterministicTraining(t *testing.T) {
	rngA := rand.New(rand.NewSource(1))
	rngB := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	cfg.Epochs = 2
	a := Train(clusterCorpus(rngA, 100), cfg)
	b := Train(clusterCorpus(rngB, 100), cfg)
	for i, v := range a.In.Data {
		if b.In.Data[i] != v {
			t.Fatal("training not deterministic")
		}
	}
}

func TestVectorAndHas(t *testing.T) {
	w := trained(t)
	if !w.Has("fever") {
		t.Fatal("fever missing")
	}
	if w.Vector("fever") == nil {
		t.Fatal("nil vector for vocab word")
	}
	if w.Vector("zzz-unknown") != nil {
		t.Fatal("vector for OOV word")
	}
	if w.Similarity("fever", "zzz") != 0 {
		t.Fatal("similarity with OOV should be 0")
	}
}

func TestMinCountFiltersRareWords(t *testing.T) {
	sents := [][]string{
		{"common", "common", "common", "rare"},
		{"common", "common"},
	}
	cfg := DefaultConfig()
	cfg.MinCount = 2
	w := Train(sents, cfg)
	if !w.Has("common") {
		t.Fatal("common dropped")
	}
	if w.Has("rare") {
		t.Fatal("rare kept despite MinCount")
	}
}

func TestNeighborsExcludeSelf(t *testing.T) {
	w := trained(t)
	ns := w.Neighbors("fever", 3)
	if len(ns) == 0 {
		t.Fatal("no neighbours")
	}
	for _, m := range ns {
		if m.Word == "fever" {
			t.Fatal("self in neighbours")
		}
	}
	// nearest neighbours of fever should be symptom-cluster words
	symptom := map[string]bool{"cough": true, "fatigue": true, "headache": true, "chills": true}
	if !symptom[ns[0].Word] {
		t.Fatalf("nearest neighbour of fever = %q", ns[0].Word)
	}
	if w.Neighbors("zzz", 3) != nil {
		t.Fatal("neighbours of OOV")
	}
}

func TestMostSimilarOrdering(t *testing.T) {
	w := trained(t)
	ms := w.MostSimilar(w.Vector("vaccine"), 5)
	for i := 1; i < len(ms); i++ {
		if ms[i].Sim > ms[i-1].Sim {
			t.Fatal("MostSimilar not sorted")
		}
	}
	if ms[0].Word != "vaccine" {
		t.Fatalf("self should be nearest: %v", ms[0])
	}
	if w.MostSimilar(nil, 5) != nil {
		t.Fatal("nil vector should give nil")
	}
}

func TestEmbedTextAveragesAndSkipsOOV(t *testing.T) {
	w := trained(t)
	v := w.EmbedText("fever and cough")
	if v == nil {
		t.Fatal("nil embedding")
	}
	if len(v) != w.Dim {
		t.Fatalf("dim = %d", len(v))
	}
	if w.EmbedText("zzz qqq www") != nil {
		t.Fatal("all-OOV text should embed to nil")
	}
	// averaging: text of one word equals that word's vector
	single := w.EmbedTokens([]string{"fever"})
	vf := w.Vector("fever")
	for i := range single {
		if single[i] != vf[i] {
			t.Fatal("single-token embedding differs from word vector")
		}
	}
}

func TestFineTuneAddsVocabulary(t *testing.T) {
	w := trained(t)
	oldVocab := len(w.Words)
	feverBefore := append([]float64(nil), w.Vector("fever")...)

	// new corpus introduces "novovac" co-occurring with vaccine words
	var sents [][]string
	for i := 0; i < 300; i++ {
		sents = append(sents, []string{"novovac", "vaccine", "dose", "booster", "novovac"})
	}
	cfg := DefaultConfig()
	cfg.MinCount = 2
	cfg.Epochs = 6
	w.FineTune(sents, cfg)

	if len(w.Words) <= oldVocab {
		t.Fatal("vocabulary did not grow")
	}
	if !w.Has("novovac") {
		t.Fatal("new word missing after fine-tune")
	}
	// the new word should land near the vaccine cluster
	simVaccine := w.Similarity("novovac", "vaccine")
	simMask := w.Similarity("novovac", "mask")
	if simVaccine <= simMask {
		t.Fatalf("novovac closer to mask (%v) than vaccine (%v)", simMask, simVaccine)
	}
	// old vectors still exist (may have drifted but not vanished)
	if w.Vector("fever") == nil {
		t.Fatal("old word lost")
	}
	_ = feverBefore
}

func TestCellToken(t *testing.T) {
	cases := map[string]string{
		"Pfizer-BioNTech": "pfizer-biontech",
		"8.5%":            "float_percent",
		"5-10 mg":         "range_mg",
		"":                "_empty_",
		"Fever %":         "fever",
		"42":              "int",
	}
	for in, want := range cases {
		if got := CellToken(in); got != want {
			t.Errorf("CellToken(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTermAndCellSentences(t *testing.T) {
	row := []string{"Vaccine", "2 doses", "8.5%"}
	terms := TermSentence(row)
	joined := strings.Join(terms, " ")
	if !strings.Contains(joined, "vaccine") || !strings.Contains(joined, "int") {
		t.Fatalf("TermSentence = %v", terms)
	}
	cells := CellSentence(row)
	if len(cells) != 3 {
		t.Fatalf("CellSentence = %v", cells)
	}
	if cells[2] != "float_percent" {
		t.Fatalf("cell token = %q", cells[2])
	}
}

func TestTableSentences(t *testing.T) {
	tables := [][][]string{
		{{"A", "B"}, {"1", "2"}},
		{{"C"}, {"3"}},
	}
	termS, cellS := TableSentences(tables)
	if len(cellS) != 4 {
		t.Fatalf("cell sentences = %d", len(cellS))
	}
	if len(termS) == 0 {
		t.Fatal("no term sentences")
	}
}

// TestTableSentencesMatchesRowFunctions holds the one-substitution-per-
// cell TableSentences to the per-row TermSentence and CellSentence it
// replaces, over the generated corpus's and the WDC substitute's tables
// plus rows whose every cell is empty.
func TestTableSentencesMatchesRowFunctions(t *testing.T) {
	gen := cord19.NewGenerator(42)
	tables := [][][]string{
		{{"", " ", "\t"}, {}, {"Age", "45"}, {"", ""}},
	}
	for _, p := range gen.Corpus(100) {
		for _, pt := range p.Tables {
			tables = append(tables, pt.Rows)
		}
	}
	for _, lt := range gen.LabeledTables(60, 0.5) {
		tables = append(tables, lt.Rows)
	}
	var wantTerms, wantCells [][]string
	for _, rows := range tables {
		for _, row := range rows {
			if ts := TermSentence(row); len(ts) > 0 {
				wantTerms = append(wantTerms, ts)
			}
			wantCells = append(wantCells, CellSentence(row))
		}
	}
	gotTerms, gotCells := TableSentences(tables)
	if !reflect.DeepEqual(gotTerms, wantTerms) {
		t.Fatalf("term sentences differ from TermSentence: %d sentences, want %d", len(gotTerms), len(wantTerms))
	}
	if !reflect.DeepEqual(gotCells, wantCells) {
		t.Fatalf("cell sentences differ from CellSentence: %d sentences, want %d", len(gotCells), len(wantCells))
	}
	if len(wantCells) < 1000 {
		t.Fatalf("only %d rows compared", len(wantCells))
	}
}

func TestEmbeddingVectorsFinite(t *testing.T) {
	w := trained(t)
	for i := range w.Words {
		for _, v := range w.In.Row(i) {
			if v != v || v > 1e6 || v < -1e6 {
				t.Fatalf("vector blew up: %v", v)
			}
		}
	}
	_ = mlcore.Norm2
}
