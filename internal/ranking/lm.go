package ranking

import "math"

// DirichletLM is the query-likelihood language model with Dirichlet
// smoothing. It consumes the Table 1 statistic tc(w, D) (term count in the
// collection) — the statistic whose context-sensitive variant tc(w, D_P)
// the materialized views also cover. Smoothing quality degrades for tiny
// contexts, which is the effect §6.3 of the paper points out ("when the
// context size is too small, smoothing becomes harder").
type DirichletLM struct {
	// Mu is the Dirichlet pseudo-count (typical 2000; smaller values suit
	// short fields).
	Mu float64
}

// NewDirichletLM returns the scorer with μ = 2000.
func NewDirichletLM() *DirichletLM { return &DirichletLM{Mu: 2000} }

// Name implements Scorer.
func (m *DirichletLM) Name() string { return "dirichlet-lm" }

// ScoreIndexed implements Scorer. The score is the (rank-equivalent,
// shifted) query log-likelihood
//
//	Σ_w tq(w) · ln( (tf(w,d) + μ·p(w|C)) / (len(d) + μ) / p(w|C) )
//
// where p(w|C) = tc(w, C)/len(C). Dividing by p(w|C) inside the log keeps
// scores comparable across documents without changing the ranking and
// keeps absent-term contributions at exactly zero. Terms unseen in the
// collection are smoothed with a half-count so the model stays finite.
func (m *DirichletLM) ScoreIndexed(q QueryStats, d DocStats, c CollectionStats) float64 {
	if c.TotalLen <= 0 {
		return 0
	}
	var score float64
	for i := range c.Terms {
		tf := float64(d.TFs[i])
		tc := float64(c.TCs[i])
		if tc <= 0 {
			tc = 0.5
		}
		pwc := tc / float64(c.TotalLen)
		num := tf + m.Mu*pwc
		den := float64(d.Len) + m.Mu
		if num <= 0 || den <= 0 {
			continue
		}
		score += float64(q.TQs[i]) * math.Log(num/den/pwc)
	}
	return score
}
