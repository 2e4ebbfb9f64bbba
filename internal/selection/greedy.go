package selection

import (
	"sort"

	"csrank/internal/mining"
	"csrank/internal/widetable"
)

// Miner is the association-rule mining algorithm the data-mining-based
// selection runs (mining.Apriori, mining.FPGrowth or mining.Eclat).
type Miner func(tx [][]mining.Item, opts mining.Options) []mining.FrequentItemset

// DataMiningBased implements §5.1 end-to-end: mine the frequent
// predicate-term combinations with support ≥ T_C, keep the maximal ones,
// and cover them with the greedy Algorithm 1.
func DataMiningBased(tbl *widetable.Table, frequentTerms []string, cfg Config, mine Miner) (Result, error) {
	var res Result
	res.Stats.FrequentTerms = len(frequentTerms)
	tx, err := transactions(tbl, frequentTerms)
	if err != nil {
		return res, err
	}
	all := mine(tx, mining.Options{MinSupport: int(cfg.TC), MaxLen: cfg.maxCombiLen()})
	res.Stats.MinedCombinations = len(all)
	maximal := mining.Maximal(all)
	res.Stats.MaximalCombinations = len(maximal)

	combos := make([][]string, len(maximal))
	for i, m := range maximal {
		names := make([]string, len(m.Items))
		for j, it := range m.Items {
			names[j] = frequentTerms[it]
		}
		combos[i] = names
	}
	sz := newSizer(tbl, cfg)
	res.KeySets = GreedyCover(combos, sz.size, cfg.TV)
	res.Stats.ViewSizeProbes = sz.probes
	return res, nil
}

// GreedyCover is Algorithm 1: given keyword combinations that must each
// be covered by some view, build views greedily. Each new view is seeded
// with the largest remaining combination and extended with the remaining
// combination of maximal overlap, as long as the (estimated) view size
// stays below tv. Combinations that are subsets of others are removed
// first (heuristic 1).
//
// viewSize estimates ViewSize(V_K) for a candidate key set. Combinations
// whose own view already reaches tv still get a dedicated view — the
// assumption ViewSize(V_P) < T_V for mined P is the caller's to arrange
// (via the mining length bound); violating it degrades view cost, never
// correctness.
func GreedyCover(combos [][]string, viewSize func(k []string) int, tv int) [][]string {
	pending := dedupKeySets(combos) // sorted, deduped, subsets removed
	// Work on a copy ordered by descending combination size (line 5 picks
	// the largest remaining).
	sort.SliceStable(pending, func(a, b int) bool { return len(pending[a]) > len(pending[b]) })

	var result [][]string
	for len(pending) > 0 {
		// Seed the view with the largest remaining combination.
		k := pending[0]
		pending = pending[1:]
		for viewSize(k) < tv && len(pending) > 0 {
			// Find the remaining combination with maximal overlap whose
			// addition keeps the view under tv.
			bestIdx, bestOverlap := -1, -1
			for i, p := range pending {
				ov := overlap(k, p)
				if ov <= bestOverlap {
					continue
				}
				if viewSize(unionSorted(k, p)) < tv {
					bestIdx, bestOverlap = i, ov
				}
			}
			if bestIdx < 0 {
				break
			}
			k = unionSorted(k, pending[bestIdx])
			pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		}
		result = append(result, k)
	}
	return dedupKeySets(result)
}

// overlap returns |a ∩ b| for sorted string slices.
func overlap(a, b []string) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// unionSorted returns the sorted union of two sorted string slices.
func unionSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// CoverageHoles verifies Problem Statement 5.1 against ground truth: it
// mines every frequent combination (support ≥ tc) of the given terms and
// returns those not contained in any key set. Used by tests and the
// experiment harness; an empty result certifies the selection.
func CoverageHoles(tbl *widetable.Table, frequentTerms []string, keySets [][]string, tc int64, maxLen int) ([][]string, error) {
	tx, err := transactions(tbl, frequentTerms)
	if err != nil {
		return nil, err
	}
	all := mining.Eclat(tx, mining.Options{MinSupport: int(tc), MaxLen: maxLen})
	var holes [][]string
	for _, m := range all {
		names := make([]string, len(m.Items))
		for j, it := range m.Items {
			names[j] = frequentTerms[it]
		}
		covered := false
		for _, k := range keySets {
			if isSubsetStr(names, k) {
				covered = true
				break
			}
		}
		if !covered {
			holes = append(holes, names)
		}
	}
	return holes, nil
}
