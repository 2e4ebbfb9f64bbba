package ranking

import (
	"math/rand"
	"testing"
)

var benchSink float64

// BenchmarkScoreHotPath isolates the per-document scoring loop of every
// built-in scorer: the engine copies each document's term frequencies
// into one reused []int64 and the scorer walks the slot-indexed
// statistics — zero map operations and zero allocations per document.
func BenchmarkScoreHotPath(b *testing.B) {
	const nDocs = 4096
	terms := []string{"pancreas", "leukemia", "transplant", "outcome"}
	qs := NewQueryStats(terms)
	cs := CollectionStats{
		N:        100000,
		TotalLen: 12000000,
		DF:       map[string]int64{"pancreas": 900, "leukemia": 1400, "transplant": 300, "outcome": 5200},
		TC:       map[string]int64{"pancreas": 2100, "leukemia": 3300, "transplant": 410, "outcome": 9800},
	}
	cs.IndexTerms(terms)
	rng := rand.New(rand.NewSource(17))
	tfs := make([][]int64, nDocs)
	lens := make([]int64, nDocs)
	for i := range tfs {
		row := make([]int64, len(terms))
		for j := range row {
			row[j] = int64(rng.Intn(6)) // 0 is common: conjunctive TFs vary
		}
		tfs[i] = row
		lens[i] = int64(40 + rng.Intn(400))
	}
	for _, sc := range All() {
		b.Run(sc.Name(), func(b *testing.B) {
			b.ReportAllocs()
			tf := make([]int64, len(terms))
			for i := 0; i < b.N; i++ {
				d := i % nDocs
				copy(tf, tfs[d])
				benchSink += sc.ScoreIndexed(qs, DocStats{TFs: tf, Len: lens[d]}, cs)
			}
		})
	}
}
