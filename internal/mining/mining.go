// Package mining implements frequent-itemset mining over the predicate
// annotations of a document collection — the machinery §5.1 reduces view
// selection to: "finding keyword combinations that specify large contexts
// is equivalent to mining association rules of keywords such that their
// supports … are greater than T_C". Items are predicate-term indices and
// transactions are documents' annotation sets.
//
// Three classic miners are provided — Apriori, FP-growth and Eclat — with
// identical output contracts, so the experiments can compare their
// feasibility as the paper does (§6.2 reports plain Apriori/FP-growth
// failing at PubMed scale while the hybrid remains feasible).
package mining

import (
	"sort"
)

// Item is an item identifier (a predicate-term index).
type Item = int32

// FrequentItemset is one mined itemset with its support (the number of
// transactions containing all its items).
type FrequentItemset struct {
	// Items is sorted ascending.
	Items []Item
	// Support is the number of supporting transactions (≥ the miner's
	// minimum support).
	Support int
}

func itemsKey(items []Item) string {
	b := make([]byte, 0, len(items)*4)
	for _, it := range items {
		b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(b)
}

// Options configures a mining run.
type Options struct {
	// MinSupport is the minimum transaction count (T_C). Must be ≥ 1.
	MinSupport int
	// MaxLen bounds itemset size; 0 means unbounded. Algorithm 1 relies
	// on an upper bound so that any mined combination fits in one view.
	MaxLen int
}

func (o Options) maxLen() int {
	if o.MaxLen <= 0 {
		return int(^uint(0) >> 1)
	}
	return o.MaxLen
}

// sortResult puts itemsets in a canonical order: by length, then
// lexicographically by items.
func sortResult(sets []FrequentItemset) {
	sort.Slice(sets, func(a, b int) bool {
		x, y := sets[a].Items, sets[b].Items
		if len(x) != len(y) {
			return len(x) < len(y)
		}
		for i := range x {
			if x[i] != y[i] {
				return x[i] < y[i]
			}
		}
		return false
	})
}

// Maximal filters a frequent-itemset collection down to its maximal
// members: sets not strictly contained in another member. Algorithm 1's
// first heuristic ("remove keyword combinations that are subsets of other
// combinations") consumes exactly this.
func Maximal(sets []FrequentItemset) []FrequentItemset {
	// Sort by descending length so any superset precedes its subsets.
	sorted := append([]FrequentItemset(nil), sets...)
	sort.Slice(sorted, func(a, b int) bool { return len(sorted[a].Items) > len(sorted[b].Items) })
	var out []FrequentItemset
	for _, s := range sorted {
		contained := false
		for _, m := range out {
			if isSubset(s.Items, m.Items) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, s)
		}
	}
	sortResult(out)
	return out
}

// isSubset reports whether sorted a ⊆ sorted b.
func isSubset(a, b []Item) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}
