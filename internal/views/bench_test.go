package views

import (
	"fmt"
	"math/rand"
	"testing"

	"csrank/internal/widetable"
)

// benchView materializes one view with about as many groups as csbuild's
// views on a 6 000-document shard: |K| = 40 over 3 000 documents gives
// close to three thousand. Every tracked word is in two thirds of the
// documents, so its column has an entry in nearly every row — the
// Σ nnz(w) term of an answer at its worst.
func benchView(b testing.TB) (v *View, k, words []string) {
	rng := rand.New(rand.NewSource(3))
	docs, mesh, words := oracleDocs(rng, 3000, 40, 32, 0.12)
	v, err := Materialize(widetable.FromIndex(oracleIndex(b, docs), words), mesh, words)
	if err != nil {
		b.Fatal(err)
	}
	return v, mesh, words
}

var answerSink ContextStats

func BenchmarkViewAnswer(b *testing.B) {
	v, k, words := benchView(b)
	for _, terms := range []int{1, 2} {
		for _, nWords := range []int{0, 2} {
			b.Run(fmt.Sprintf("terms=%d/words=%d/groups=%d", terms, nWords, v.Size()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					j := i % (len(k) - 1)
					answerSink, _ = v.Answer(k[j:j+terms], words[:nWords], nil)
				}
			})
		}
	}
}

// TestAnswerAllocations pins what an answer may allocate: its two result
// maps and one selection buffer, nothing per group and nothing per word.
// The maps' own cost depends on the Go release, so it is measured here
// by building the same two maps.
func TestAnswerAllocations(t *testing.T) {
	v, k, words := benchView(t)
	for _, nWords := range []int{0, 2} {
		asked := words[:nWords]
		maps := testing.AllocsPerRun(200, func() {
			res := ContextStats{DF: make(map[string]int64, len(asked)), TC: make(map[string]int64, len(asked))}
			for _, w := range asked {
				res.DF[w], res.TC[w] = 1, 1
			}
			answerSink = res
		})
		got := testing.AllocsPerRun(200, func() {
			answerSink, _ = v.Answer(k[3:5], asked, nil)
		})
		if got > maps+1 {
			t.Errorf("Answer with %d words: %.0f allocations, the two result maps alone take %.0f; want at most one more", nWords, got, maps)
		}
	}
}
