package ranking

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// boundedScorers enumerates every built-in scorer, with both default and
// randomized in-derivation parameters.
func boundedScorers(rng *rand.Rand) []Scorer {
	return []Scorer{
		NewPivotedTFIDF(),
		&PivotedTFIDF{S: rng.Float64()},
		NewBM25(),
		&BM25{K1: rng.Float64() * 3, B: rng.Float64()},
		NewDirichletLM(),
		&DirichletLM{Mu: 1 + rng.Float64()*4000},
		NewCosineTFIDF(),
		NewJelinekMercerLM(),
		&JelinekMercerLM{Lambda: 0.05 + 0.9*rng.Float64()},
	}
}

// randomContextStats generates collection statistics as they appear in
// practice — including context-sensitive S_c(D_P) regimes where N is
// tiny and df/tc may exceed or undercut their whole-collection
// relationships (statistics drift across snapshots is tolerated) — laid
// out in the slots of terms.
func randomContextStats(rng *rand.Rand, terms []string) CollectionStats {
	n := int64(1 + rng.Intn(100000))
	if rng.Intn(3) == 0 {
		n = int64(1 + rng.Intn(20)) // context-like: a handful of documents
	}
	cs := CollectionStats{
		N:        n,
		TotalLen: n * int64(1+rng.Intn(300)),
		DF:       make(map[string]int64, len(terms)),
		TC:       make(map[string]int64, len(terms)),
	}
	for _, w := range terms {
		df := int64(rng.Intn(int(n + 2))) // may exceed N: drifted stats
		cs.DF[w] = df
		cs.TC[w] = df * int64(rng.Intn(5))
	}
	cs.IndexTerms(terms)
	return cs
}

// randomQuery returns 1–4 distinct keywords, each repeated 1–3 times in
// the query, and the query's statistics.
func randomQuery(rng *rand.Rand) ([]string, QueryStats) {
	terms := make([]string, 1+rng.Intn(4))
	var stream []string
	for i := range terms {
		terms[i] = fmt.Sprintf("w%d", i)
		for r := 0; r < 1+rng.Intn(3); r++ {
			stream = append(stream, terms[i])
		}
	}
	return terms, NewQueryStats(stream)
}

// project returns the single-slot projections of q and c the pruned walk
// (internal/core) bounds keyword i with: slot i alone, sharing storage.
func project(q QueryStats, c CollectionStats, i int) (QueryStats, CollectionStats) {
	return QueryStats{TQs: q.TQs[i : i+1]}, CollectionStats{N: c.N, TotalLen: c.TotalLen,
		Terms: c.Terms[i : i+1], DFs: c.DFs[i : i+1], TCs: c.TCs[i : i+1]}
}

// TestScoreNeverExceedsUpperBound is the pruning-safety property: for
// every scorer, any document with per-term tf ≤ maxTF and len ≥ minLen
// must score at or below UpperBound(maxTF, minLen).
func TestScoreNeverExceedsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 400; trial++ {
		terms, qs := randomQuery(rng)
		cs := randomContextStats(rng, terms)
		maxTF := int32(rng.Intn(60)) // 0 is legal: a container of tf-0 ghosts cannot exist, but the bound must still hold
		minLen := int32(1 + rng.Intn(400))

		for _, sc := range boundedScorers(rng) {
			ub := sc.UpperBound(qs, maxTF, minLen, cs)
			if math.IsNaN(ub) {
				t.Fatalf("trial %d %s: UpperBound is NaN", trial, sc.Name())
			}
			for doc := 0; doc < 25; doc++ {
				ln := int64(minLen) + int64(rng.Intn(500))
				tfs := make([]int64, len(terms))
				for i := range tfs {
					tfs[i] = int64(rng.Intn(int(maxTF) + 1))
				}
				score := sc.ScoreIndexed(qs, DocStats{TFs: tfs, Len: ln}, cs)
				if tol := 1e-9 * math.Max(1, math.Abs(ub)); score > ub+tol {
					t.Fatalf("trial %d %s: ScoreIndexed %v > UpperBound %v (maxTF=%d minLen=%d len=%d tf=%v)",
						trial, sc.Name(), score, ub, maxTF, minLen, ln, tfs)
				}
			}
		}
	}
}

// TestTermBoundsSumToUpperBound pins the decomposition the pruned walk's
// container and suffix bounds rely on: summed over the single-slot
// projections, the per-keyword ceilings equal the full bound.
func TestTermBoundsSumToUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		terms, qs := randomQuery(rng)
		cs := randomContextStats(rng, terms)
		maxTF := int32(rng.Intn(60))
		minLen := int32(1 + rng.Intn(400))
		for _, sc := range boundedScorers(rng) {
			full := sc.UpperBound(qs, maxTF, minLen, cs)
			var sum, mag float64
			for i := range terms {
				tq, tc := project(qs, cs, i)
				ub := sc.UpperBound(tq, maxTF, minLen, tc)
				sum += ub
				mag += math.Abs(ub)
			}
			if math.Abs(sum-full) > 1e-12*mag {
				t.Fatalf("trial %d %s: Σ term bounds %v ≠ UpperBound %v (maxTF=%d minLen=%d)",
					trial, sc.Name(), sum, full, maxTF, minLen)
			}
		}
	}
}

// TestScoringDoesNotAllocate: scoring a document and bounding one
// keyword — the two calls the engine makes per document — allocate
// nothing for any built-in scorer.
func TestScoringDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	terms, qs := randomQuery(rng)
	cs := randomContextStats(rng, terms)
	ds := DocStats{TFs: make([]int64, len(terms)), Len: 50}
	for i := range ds.TFs {
		ds.TFs[i] = int64(1 + i)
	}
	tq, tc := project(qs, cs, len(terms)-1)
	var sink float64
	for _, sc := range All() {
		if n := testing.AllocsPerRun(100, func() { sink += sc.ScoreIndexed(qs, ds, cs) }); n != 0 {
			t.Errorf("%s: ScoreIndexed allocates %v times per call", sc.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() { sink += sc.UpperBound(tq, 5, 40, tc) }); n != 0 {
			t.Errorf("%s: projected UpperBound allocates %v times per call", sc.Name(), n)
		}
	}
	_ = sink
}

// TestUpperBoundTightAtCeiling sanity-checks the bound is not vacuous:
// a document sitting exactly at (maxTF, minLen) with every idf positive
// scores exactly the bound for the clamping-free scorers.
func TestUpperBoundTightAtCeiling(t *testing.T) {
	qs := NewQueryStats([]string{"a", "b"})
	cs := indexed(qs, CollectionStats{
		N: 1000, TotalLen: 200000,
		DF: map[string]int64{"a": 10, "b": 50},
		TC: map[string]int64{"a": 30, "b": 200},
	})
	const maxTF, minLen = 7, 40
	for _, sc := range All() {
		ub := sc.UpperBound(qs, maxTF, minLen, cs)
		score := sc.ScoreIndexed(qs, DocStats{TFs: []int64{maxTF, maxTF}, Len: minLen}, cs)
		if math.Abs(ub-score) > 1e-9*math.Max(1, math.Abs(ub)) {
			t.Fatalf("%s: ceiling doc scores %v, bound %v — bound should be tight here", sc.Name(), score, ub)
		}
	}
}

// TestUpperBoundOutOfDerivationIsInf verifies the fail-safe: parameters
// outside a bound's derivation must disable pruning (+Inf), never
// under-estimate.
func TestUpperBoundOutOfDerivationIsInf(t *testing.T) {
	qs := NewQueryStats([]string{"a"})
	cs := indexed(qs, CollectionStats{N: 100, TotalLen: 10000, DF: map[string]int64{"a": 5}, TC: map[string]int64{"a": 9}})
	cases := []struct {
		name string
		sc   Scorer
	}{
		{"pivoted s>1 shrinking norm", &PivotedTFIDF{S: 4}},
		{"bm25 negative k1", &BM25{K1: -1, B: 0.5}},
		{"bm25 b>1", &BM25{K1: 1.2, B: 2}},
		{"dirichlet non-positive mu", &DirichletLM{Mu: 0}},
		{"jm lambda 0", &JelinekMercerLM{Lambda: 0}},
		{"jm lambda >1", &JelinekMercerLM{Lambda: 1.5}},
	}
	for _, c := range cases {
		var minLen int32 = 10
		if c.name == "pivoted s>1 shrinking norm" {
			minLen = 0 // norm = (1-4) + 4·0/avgdl < 0
		}
		if ub := c.sc.UpperBound(qs, 5, minLen, cs); !math.IsInf(ub, 1) {
			t.Fatalf("%s: UpperBound = %v, want +Inf", c.name, ub)
		}
	}
}

// TestDirichletBoundMayBeNegative documents the language-model subtlety:
// a negative bound is a legitimate, usable ceiling (short documents score
// below zero), and pruning must compare against it as-is.
func TestDirichletBoundMayBeNegative(t *testing.T) {
	qs := NewQueryStats([]string{"rare"})
	cs := indexed(qs, CollectionStats{N: 50, TotalLen: 100000, DF: map[string]int64{"rare": 1}, TC: map[string]int64{"rare": 1}})
	sc := NewDirichletLM()
	ub := sc.UpperBound(qs, 0, 5000, cs) // container where the term never exceeds tf 0
	if ub >= 0 {
		t.Fatalf("expected a negative Dirichlet bound, got %v", ub)
	}
	score := sc.ScoreIndexed(qs, DocStats{TFs: []int64{0}, Len: 6000}, cs)
	if score > ub+1e-12 {
		t.Fatalf("score %v exceeds negative bound %v", score, ub)
	}
}
