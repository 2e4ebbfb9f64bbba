package ranking

import "math"

// Score upper bounds for block-max dynamic pruning. Every built-in
// ranking formula is a sum of per-keyword contributions, each monotone
// nondecreasing in tf(w, d) and nonincreasing in len(d); evaluating the
// formula at the container's ceilings — tf = MaxTF and len(d) = MinDocLen
// — therefore bounds the score of every document the container can hold.
// The pruned scoring loop compares these bounds against the current
// top-k threshold and skips documents (or whole containers) that
// provably cannot rank. It also bounds keywords one at a time, through
// single-slot projections of q and c, so UpperBound must be exactly the
// sum of its per-keyword ceilings.
//
// Context-sensitivity caveat: the bound is a function of the same
// CollectionStats c the scorer ranks with — S_c(D_P) under
// context-sensitive evaluation — so bounds are only resolvable after the
// context statistics phase returns, and the pruned path sequences
// statistics strictly before scoring.
//
// Bounds may be loose (a valid bound is allowed to exceed the true
// maximum) but must never under-estimate: pruning safety — bit-identical
// top-k — depends only on ScoreIndexed ≤ UpperBound. Implementations
// return +Inf for parameterizations outside their derivation's
// assumptions (e.g. a non-positive smoothing constant), which simply
// disables pruning for that query instead of corrupting it.

// UpperBound implements Scorer. Per term the Formula 3 summand
// tfPart(tf)/norm(len)·tq·idf is maximized at (maxTF, minLen); negative
// idf (df ≥ |D|+1, possible with drifted statistics) clamps the term's
// bound to 0 because a document may omit the term entirely.
func (p *PivotedTFIDF) UpperBound(q QueryStats, maxTF int32, minLen int32, c CollectionStats) float64 {
	avgdl := c.AvgDocLen()
	if avgdl <= 0 {
		return 0
	}
	norm := (1 - p.S) + p.S*float64(minLen)/avgdl
	if norm <= 0 {
		// Outside the derivation (s > 1 or negative lengths): some longer
		// document could have an arbitrarily small positive norm.
		return math.Inf(1)
	}
	if maxTF < 1 {
		return 0
	}
	tfPart := (1 + math.Log(1+math.Log(float64(maxTF)))) / norm
	var bound float64
	for i := range c.Terms {
		df := c.DFs[i]
		if df < 1 {
			df = 1
		}
		if t := tfPart * float64(q.TQs[i]) * math.Log((float64(c.N)+1)/float64(df)); t > 0 {
			bound += t
		}
	}
	return bound
}

// UpperBound implements Scorer. The BM25 summand
// idf·tf(k1+1)/(tf+K(len))·tq is increasing in tf and decreasing in len
// (K grows with len when b ≥ 0), so it is maximized at (maxTF, minLen);
// a negative idf (df > |D|) clamps to 0.
func (m *BM25) UpperBound(q QueryStats, maxTF int32, minLen int32, c CollectionStats) float64 {
	avgdl := c.AvgDocLen()
	if avgdl <= 0 || maxTF < 1 {
		return 0
	}
	if m.K1 < 0 || m.B < 0 || m.B > 1 {
		return math.Inf(1)
	}
	tf := float64(maxTF)
	k := m.K1 * (1 - m.B + m.B*float64(minLen)/avgdl)
	if k < 0 {
		k = 0 // minLen < 0 cannot tighten the bound below the k=0 case
	}
	tfPart := tf * (m.K1 + 1) / (tf + k)
	var bound float64
	for i := range c.Terms {
		df := float64(c.DFs[i])
		if df < 1 {
			df = 1
		}
		idf := math.Log(1 + (float64(c.N)-df+0.5)/(df+0.5))
		if t := idf * tfPart * float64(q.TQs[i]); t > 0 {
			bound += t
		}
	}
	return bound
}

// UpperBound implements Scorer. The Dirichlet summand
// tq·ln((tf+μp)/((len+μ)p)) is increasing in tf and decreasing in len,
// so its maximum over the container is at (maxTF, minLen). Note the
// summand — and hence the bound — can be negative: a short document's
// absent or rare terms contribute below-zero mass, and a negative bound
// is still a correct ceiling. maxTF is floored at 0 (the smoothed model
// scores tf = 0 too).
func (m *DirichletLM) UpperBound(q QueryStats, maxTF int32, minLen int32, c CollectionStats) float64 {
	if c.TotalLen <= 0 {
		return 0
	}
	if m.Mu <= 0 || float64(minLen)+m.Mu <= 0 {
		return math.Inf(1)
	}
	tf := float64(maxTF)
	if tf < 0 {
		tf = 0
	}
	den := float64(minLen) + m.Mu
	var bound float64
	for i := range c.Terms {
		tc := float64(c.TCs[i])
		if tc <= 0 {
			tc = 0.5
		}
		pwc := tc / float64(c.TotalLen)
		bound += float64(q.TQs[i]) * math.Log((tf+m.Mu*pwc)/(den*pwc))
	}
	return bound
}

// UpperBound implements Scorer. The cosine summand
// (1+ln tf)·idf·tq/√len is maximized at (maxTF, max(minLen, 1)) — a
// contributing document has integer length ≥ 1 regardless of minLen —
// and a negative idf (df > e·|D|) clamps to 0.
func (c *CosineTFIDF) UpperBound(q QueryStats, maxTF int32, minLen int32, cs CollectionStats) float64 {
	if cs.N <= 0 || maxTF < 1 {
		return 0
	}
	effLen := float64(minLen)
	if effLen < 1 {
		effLen = 1
	}
	tfPart := (1 + math.Log(float64(maxTF))) / math.Sqrt(effLen)
	var bound float64
	for i := range cs.Terms {
		df := float64(cs.DFs[i])
		if df < 1 {
			df = 1
		}
		idf := math.Log(float64(cs.N)/df) + 1
		if t := tfPart * idf * float64(q.TQs[i]); t > 0 {
			bound += t
		}
	}
	return bound
}

// UpperBound implements Scorer. The Jelinek-Mercer summand
// tq·ln(1 + (1-λ)·tf/(len·λ·p)) is increasing in tf, decreasing in len,
// and always ≥ 0, so the bound evaluates it at (maxTF, max(minLen, 1)).
func (m *JelinekMercerLM) UpperBound(q QueryStats, maxTF int32, minLen int32, c CollectionStats) float64 {
	if c.TotalLen <= 0 {
		return 0
	}
	if m.Lambda <= 0 || m.Lambda > 1 {
		return math.Inf(1)
	}
	if maxTF < 1 {
		return 0
	}
	effLen := float64(minLen)
	if effLen < 1 {
		effLen = 1
	}
	tf := float64(maxTF)
	var bound float64
	for i := range c.Terms {
		tc := float64(c.TCs[i])
		if tc <= 0 {
			tc = 0.5
		}
		pwc := tc / float64(c.TotalLen)
		bound += float64(q.TQs[i]) * math.Log(1+(1-m.Lambda)*tf/(effLen*m.Lambda*pwc))
	}
	return bound
}
