package views

import (
	"math/rand"
	"slices"

	"csrank/internal/widetable"
)

// EstimateSize implements the sampling-based ViewSize(·) estimator of
// §4.3: sample documents, map each to its bit pattern over k, and scale
// the number of distinct non-empty patterns. It never materializes the
// view, so view-selection algorithms can probe many candidate K sets
// cheaply.
//
// sample ≤ 0 or ≥ NumDocs degenerates to the exact count. The estimate is
// the distinct-pattern count among sampled documents — a lower-bound
// estimator, so a sampled selection can admit a view whose real size
// exceeds T_V. Nothing re-checks the bound at materialization: the
// greedy cover also admits, on purpose, a single-combination view over
// T_V, since that combination must be covered and no smaller view does.
func EstimateSize(t *widetable.Table, k []string, sample int, rng *rand.Rand) int {
	cols, ok := resolveCols(t, k)
	if !ok {
		return 0
	}
	n := t.NumDocs()
	idx := make([]int, 0, n)
	if sample <= 0 || sample >= n {
		for d := 0; d < n; d++ {
			idx = append(idx, d)
		}
	} else {
		idx = rng.Perm(n)[:sample]
	}
	return distinctPatterns(t, cols, idx)
}

func resolveCols(t *widetable.Table, k []string) ([]widetable.ColID, bool) {
	cols := make([]widetable.ColID, len(k))
	for i, name := range k {
		id, ok := t.ColumnID(name)
		if !ok {
			return nil, false
		}
		cols[i] = id
	}
	return cols, true
}

func distinctPatterns(t *widetable.Table, cols []widetable.ColID, docs []int) int {
	// The count of distinct patterns does not depend on which bit a column
	// gets, so sort the columns once and take each pattern with the
	// table's merge walk instead of a binary search per (document, column).
	cols = slices.Clone(cols)
	slices.Sort(cols)
	seen := make(map[string]bool)
	buf := make([]byte, (len(cols)+7)/8)
	for _, d := range docs {
		t.FillPattern(d, cols, buf)
		// Look up before storing: the lookup converts buf without
		// allocating, a store allocates the key.
		if !seen[string(buf)] {
			seen[string(buf)] = true
		}
	}
	return len(seen)
}
