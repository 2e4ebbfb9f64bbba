package ranking

import "math"

// PivotedTFIDF is the pivoted-normalization TF-IDF formula (Singhal's
// variant, Formula 3 of the paper), "considered to be one of the best
// performing vector space models":
//
//	score(Q, d) = Σ_{w∈Q}  (1 + ln(1 + ln(tf(w,d)))) /
//	                       ((1-s) + s·len(d)/avgdl)
//	               · tq(w, Q) · ln((|D|+1) / df(w, D))
//
// The context-sensitive version (Formula 4) is obtained by passing
// CollectionStats computed over D_P instead of D; the formula itself is
// identical.
type PivotedTFIDF struct {
	// S is the pivot slope; the paper uses the customary 0.2.
	S float64
}

// NewPivotedTFIDF returns the scorer with the paper's s = 0.2.
func NewPivotedTFIDF() *PivotedTFIDF { return &PivotedTFIDF{S: 0.2} }

// Name implements Scorer.
func (p *PivotedTFIDF) Name() string { return "pivoted-tfidf" }

// ScoreIndexed implements Scorer: the Formula 3 loop. Keywords with
// tf = 0 contribute nothing (they cannot occur in conjunctive results,
// but partial scoring is well defined); df is clamped to ≥ 1 so a stale
// statistic can never produce an infinite weight.
func (p *PivotedTFIDF) ScoreIndexed(q QueryStats, d DocStats, c CollectionStats) float64 {
	avgdl := c.AvgDocLen()
	if avgdl <= 0 {
		return 0
	}
	norm := (1 - p.S) + p.S*float64(d.Len)/avgdl
	if norm <= 0 {
		return 0
	}
	var score float64
	for i := range c.Terms {
		tf := d.TFs[i]
		if tf <= 0 {
			continue
		}
		df := c.DFs[i]
		if df < 1 {
			df = 1
		}
		tfPart := (1 + math.Log(1+math.Log(float64(tf)))) / norm
		idf := math.Log((float64(c.N) + 1) / float64(df))
		score += tfPart * float64(q.TQs[i]) * idf
	}
	return score
}
