package ranking

import "math"

// BM25 is the Okapi BM25 probabilistic relevance model. The paper's
// framework (Formula 2) is model-agnostic — any f over (S_q, S_d, S_c)
// becomes context-sensitive by swapping the collection statistics — and
// BM25 uses exactly the statistics of Table 1: tf(w,d), len(d), avgdl,
// |D| and df(w,D).
type BM25 struct {
	// K1 controls term-frequency saturation (typical 1.2).
	K1 float64
	// B controls length normalization (typical 0.75).
	B float64
}

// NewBM25 returns BM25 with the conventional k1 = 1.2, b = 0.75.
func NewBM25() *BM25 { return &BM25{K1: 1.2, B: 0.75} }

// Name implements Scorer.
func (m *BM25) Name() string { return "bm25" }

// ScoreIndexed implements Scorer using the non-negative "plus-one" idf
// variant ln(1 + (N - df + 0.5)/(df + 0.5)), which is robust when
// df > N/2 — a situation that genuinely occurs inside narrow contexts.
func (m *BM25) ScoreIndexed(q QueryStats, d DocStats, c CollectionStats) float64 {
	avgdl := c.AvgDocLen()
	if avgdl <= 0 {
		return 0
	}
	var score float64
	for i := range c.Terms {
		tf := float64(d.TFs[i])
		if tf <= 0 {
			continue
		}
		df := float64(c.DFs[i])
		if df < 1 {
			df = 1
		}
		idf := math.Log(1 + (float64(c.N)-df+0.5)/(df+0.5))
		denom := tf + m.K1*(1-m.B+m.B*float64(d.Len)/avgdl)
		score += idf * (tf * (m.K1 + 1) / denom) * float64(q.TQs[i])
	}
	return score
}
