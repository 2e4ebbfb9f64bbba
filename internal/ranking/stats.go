// Package ranking implements the ranking model of the paper (§2.2): a
// generic ranking function f(S_q, S_d, S_c) over query-specific,
// document-specific and collection-specific statistics (Table 1). The same
// scorer runs in conventional mode (S_c computed over the whole collection
// D) and context-sensitive mode (S_c computed over the context D_P) — the
// only difference, exactly as in Formula 2, is which CollectionStats the
// caller passes in.
package ranking

// QueryStats holds the query-specific statistics S_q(Q) of Table 1.
type QueryStats struct {
	// TQs is tq(w, Q) indexed by distinct-term position (aligned with
	// DistinctTerms and CollectionStats.Terms).
	TQs []int
	// distinct holds the distinct keywords in first-occurrence order, the
	// order every scorer sums in — so floating-point summation, and
	// therefore tie-breaking, is deterministic across calls.
	distinct []string
}

// NewQueryStats derives S_q from the analyzed keyword list.
func NewQueryStats(terms []string) QueryStats {
	tq := make(map[string]int, len(terms))
	distinct := make([]string, 0, len(terms))
	for _, t := range terms {
		if tq[t] == 0 {
			distinct = append(distinct, t)
		}
		tq[t]++
	}
	tqs := make([]int, len(distinct))
	for i, t := range distinct {
		tqs[i] = tq[t]
	}
	return QueryStats{TQs: tqs, distinct: distinct}
}

// DistinctTerms returns the distinct keywords in first-occurrence order.
// The slice is shared; callers must not modify it.
func (q QueryStats) DistinctTerms() []string { return q.distinct }

// DocStats holds the document-specific statistics S_d(d) needed to score
// one document: tf(w, d) for each query keyword, and len(d).
type DocStats struct {
	// TFs is tf(w, d) indexed by distinct-term position (aligned with
	// CollectionStats.Terms).
	TFs []int64
	// Len is the document length len(d) in analyzed tokens.
	Len int64
}

// CollectionStats holds the collection-specific statistics S_c(·) of
// Table 1, computed either over D (conventional) or over D_P
// (context-sensitive). The engine fills DF/TC only for the query's
// keywords; N and TotalLen describe the whole (sub-)collection.
type CollectionStats struct {
	// N is the collection cardinality |D| (or |D_P|).
	N int64
	// TotalLen is the collection length len(D): Σ_d len(d).
	TotalLen int64
	// DF maps each query keyword w to df(w, D): the number of documents
	// containing w.
	DF map[string]int64
	// TC maps each query keyword w to tc(w, D): the total occurrence
	// count of w in the collection. Used by language-model smoothing.
	TC map[string]int64

	// Terms, DFs and TCs are the term-indexed form of DF/TC that scorers
	// read: DFs[i] = df(Terms[i]) and TCs[i] = tc(Terms[i]). Terms must be
	// the query's distinct keywords in first-occurrence order (the order
	// QueryStats.DistinctTerms returns). DF/TC carry the statistics
	// between phases and shards; fill the slices via IndexTerms.
	Terms []string
	DFs   []int64
	TCs   []int64
}

// IndexTerms populates the term-indexed slices from the DF/TC maps for
// the given distinct terms (in first-occurrence order). Existing slices
// are reused when capacity allows.
func (c *CollectionStats) IndexTerms(terms []string) {
	c.Terms = terms
	if cap(c.DFs) < len(terms) {
		c.DFs = make([]int64, len(terms))
		c.TCs = make([]int64, len(terms))
	}
	c.DFs = c.DFs[:len(terms)]
	c.TCs = c.TCs[:len(terms)]
	for i, w := range terms {
		c.DFs[i] = c.DF[w]
		c.TCs[i] = c.TC[w]
	}
}

// AvgDocLen returns avgdl = len(D)/|D| (Formula 3's pivot), or 0 for an
// empty collection.
func (c CollectionStats) AvgDocLen() float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.TotalLen) / float64(c.N)
}

// Scorer is the ranking function f of Formulas 1–2: it combines the three
// statistics scopes into a single relevance score. Higher is better.
// Every method reads the term-indexed statistics — QueryStats.TQs,
// DocStats.TFs and CollectionStats.DFs/TCs, aligned with
// CollectionStats.Terms — and iterates terms in index order.
// Implementations must be safe for concurrent use and must not allocate.
type Scorer interface {
	// Name identifies the model in reports ("pivoted-tfidf", "bm25", ...).
	Name() string
	// ScoreIndexed computes score(Q, d) given the three statistics scopes.
	ScoreIndexed(q QueryStats, d DocStats, c CollectionStats) float64
	// UpperBound returns a value ≥ ScoreIndexed(q, d, c) for every
	// document d whose per-keyword term frequencies are at most maxTF and
	// whose length is at least minLen (see bounds.go).
	UpperBound(q QueryStats, maxTF int32, minLen int32, c CollectionStats) float64
}
