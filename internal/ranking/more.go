package ranking

import "math"

// This file adds two further instances of the generic ranking function f
// beyond the paper's pivoted formula, BM25 and Dirichlet LM: a classic
// cosine TF-IDF vector-space model and a Jelinek-Mercer-smoothed language
// model. They exist to demonstrate §2.2's claim concretely — *any* model
// built from Table 1's statistics becomes context-sensitive by swapping
// S_c(D) for S_c(D_P) — and back the scorer-sensitivity experiment.

// CosineTFIDF is the classic ltc-style vector-space model: log-weighted
// tf times idf, normalized by document length (a cheaper stand-in for
// full cosine normalization that needs only Table 1 statistics).
type CosineTFIDF struct{}

// NewCosineTFIDF returns the scorer.
func NewCosineTFIDF() *CosineTFIDF { return &CosineTFIDF{} }

// Name implements Scorer.
func (c *CosineTFIDF) Name() string { return "cosine-tfidf" }

// ScoreIndexed implements Scorer.
func (c *CosineTFIDF) ScoreIndexed(q QueryStats, d DocStats, cs CollectionStats) float64 {
	if d.Len <= 0 || cs.N <= 0 {
		return 0
	}
	norm := math.Sqrt(float64(d.Len))
	var score float64
	for i := range cs.Terms {
		tf := float64(d.TFs[i])
		if tf <= 0 {
			continue
		}
		df := float64(cs.DFs[i])
		if df < 1 {
			df = 1
		}
		idf := math.Log(float64(cs.N)/df) + 1
		score += (1 + math.Log(tf)) * idf * float64(q.TQs[i]) / norm
	}
	return score
}

// JelinekMercerLM is the query-likelihood language model with linear
// interpolation smoothing: p(w|d) = (1-λ)·tf/len + λ·p(w|C).
type JelinekMercerLM struct {
	// Lambda is the collection-interpolation weight (typical 0.1–0.7;
	// smaller favors the document model).
	Lambda float64
}

// NewJelinekMercerLM returns the scorer with λ = 0.3.
func NewJelinekMercerLM() *JelinekMercerLM { return &JelinekMercerLM{Lambda: 0.3} }

// Name implements Scorer.
func (m *JelinekMercerLM) Name() string { return "jelinek-mercer-lm" }

// ScoreIndexed implements Scorer; like DirichletLM it is shifted by the
// collection model so absent terms contribute exactly zero.
func (m *JelinekMercerLM) ScoreIndexed(q QueryStats, d DocStats, c CollectionStats) float64 {
	if c.TotalLen <= 0 || d.Len <= 0 {
		return 0
	}
	var score float64
	for i := range c.Terms {
		tf := float64(d.TFs[i])
		if tf <= 0 {
			continue
		}
		tc := float64(c.TCs[i])
		if tc <= 0 {
			tc = 0.5
		}
		pwc := tc / float64(c.TotalLen)
		pwd := (1-m.Lambda)*tf/float64(d.Len) + m.Lambda*pwc
		score += float64(q.TQs[i]) * math.Log(pwd/(m.Lambda*pwc))
	}
	return score
}
