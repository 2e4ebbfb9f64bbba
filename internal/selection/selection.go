// Package selection implements the view-selection problem of §5: choose a
// set of keyword sets K (each becoming a materialized view V_K) such that
// every context specification with ContextSize ≥ T_C is contained in some
// K, while every ViewSize(V_K) ≤ T_V. Three strategies are provided:
//
//   - DataMiningBased (§5.1): mine frequent predicate-term combinations
//     (support ≥ T_C), reduce to maximal combinations, and cover them with
//     the greedy Algorithm 1.
//   - GraphDecompositionBased (§5.2): build the Keyword Association Graph
//     and decompose it top-down with balanced vertex separators until the
//     pieces are coverable, skipping most support computations.
//   - Hybrid (§5.3): decomposition first, then mining inside the dense
//     clique remainders the decomposition cannot break.
package selection

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"csrank/internal/index"
	"csrank/internal/mining"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// Config carries the selection thresholds.
type Config struct {
	// TC is the context-size threshold T_C: contexts at least this large
	// must be covered by a view. The paper uses 1% of |D|.
	TC int64
	// TV is the view-size limit T_V: the maximum number of non-empty
	// tuples per materialized view. The paper uses 4096.
	TV int
	// MaxCombiLen bounds mined combination length (Algorithm 1's implicit
	// assumption that any single mined combination fits in a view; the
	// paper argues context specifications are short). Zero selects 5.
	MaxCombiLen int
	// SampleSize is the document sample for ViewSize estimation; zero
	// means exact counting.
	SampleSize int
	// Seed drives sampling.
	Seed int64
}

func (c Config) maxCombiLen() int {
	if c.MaxCombiLen <= 0 {
		return 5
	}
	return c.MaxCombiLen
}

// Stats reports the work a selection run performed.
type Stats struct {
	// FrequentTerms is the number of predicate terms with df ≥ T_C (the
	// paper's 684 MeSH terms).
	FrequentTerms int
	// MinedCombinations counts frequent itemsets produced by mining.
	MinedCombinations int
	// MaximalCombinations counts the maximal ones Algorithm 1 covers.
	MaximalCombinations int
	// Separators counts balanced-separator computations (top-down only).
	Separators int
	// SupportQueries counts decomposition support-oracle calls.
	SupportQueries int
	// CliqueRemainders counts dense leaves handed to the mining stage.
	CliqueRemainders int
	// ViewSizeProbes counts ViewSize(·) estimator invocations.
	ViewSizeProbes int
}

// Result is the outcome of a selection run: the key sets to materialize
// plus work counters.
type Result struct {
	// KeySets lists the K of each view to materialize, each sorted.
	KeySets [][]string
	Stats   Stats
}

// sizer wraps the ViewSize estimator with probe counting.
type sizer struct {
	tbl    *widetable.Table
	sample int
	rng    *rand.Rand
	probes int
}

func newSizer(tbl *widetable.Table, cfg Config) *sizer {
	return &sizer{tbl: tbl, sample: cfg.SampleSize, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (s *sizer) size(k []string) int {
	s.probes++
	return views.EstimateSize(s.tbl, k, s.sample, s.rng)
}

// dedupKeySets canonicalizes (sorts, dedups) and removes key sets
// contained in another key set — a view covering the superset is usable
// for every context the subset covers.
func dedupKeySets(sets [][]string) [][]string {
	canon := make([][]string, 0, len(sets))
	seen := map[string]bool{}
	for _, s := range sets {
		c := append([]string(nil), s...)
		sort.Strings(c)
		key := fmt.Sprint(c)
		if !seen[key] {
			seen[key] = true
			canon = append(canon, c)
		}
	}
	sort.Slice(canon, func(a, b int) bool { return len(canon[a]) > len(canon[b]) })
	var out [][]string
	for _, s := range canon {
		sub := false
		for _, m := range out {
			if isSubsetStr(s, m) {
				sub = true
				break
			}
		}
		if !sub {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		for i := 0; i < len(x) && i < len(y); i++ {
			if x[i] != y[i] {
				return x[i] < y[i]
			}
		}
		return len(x) < len(y)
	})
	return out
}

// isSubsetStr reports whether sorted a ⊆ sorted b.
func isSubsetStr(a, b []string) bool {
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

// MaterializeAll materializes one view per key set (in parallel) and
// returns them as a catalog. trackedWords selects the df/tc parameter
// columns, shared by all views (§6.2 stores df columns for content words
// with |L_w| ≥ T_C).
func MaterializeAll(tbl *widetable.Table, keySets [][]string, trackedWords []string, cfg Config) (*views.Catalog, error) {
	vs := make([]*views.View, len(keySets))
	errs := make([]error, len(keySets))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, k := range keySets {
		wg.Add(1)
		go func(i int, k []string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			vs[i], errs[i] = views.Materialize(tbl, k, trackedWords)
		}(i, k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return views.NewCatalog(vs, cfg.TC, cfg.TV), nil
}

// FrequentPredicateTerms returns the predicate terms with df ≥ T_C — the
// vocabulary view selection works over.
func FrequentPredicateTerms(ix *index.Index, tc int64) []string {
	terms := ix.TermsWithMinDF(ix.Schema().PredicateField, tc)
	sort.Strings(terms)
	return terms
}

// columnIndex maps each keyword column of tbl to the position in terms
// of its name, −1 for a column terms does not name: the dense lookup the
// row walks of BuildKAG and transactions share. missing is the first term
// with no column in tbl, "" when every term has one.
func columnIndex(tbl *widetable.Table, terms []string) (idx []int32, missing string) {
	idx = make([]int32, tbl.NumColumns())
	for i := range idx {
		idx[i] = -1
	}
	for i, name := range terms {
		id, ok := tbl.ColumnID(name)
		if !ok {
			if missing == "" {
				missing = name
			}
			continue
		}
		idx[id] = int32(i)
	}
	return idx, missing
}

// transactions builds the mining input: for each document, the sorted
// item indices of the frequent predicate terms it carries. Item i is
// terms[i].
func transactions(tbl *widetable.Table, terms []string) ([][]mining.Item, error) {
	items, missing := columnIndex(tbl, terms)
	if missing != "" {
		return nil, fmt.Errorf("selection: term %q missing from table", missing)
	}
	tx := make([][]mining.Item, tbl.NumDocs())
	for d := 0; d < tbl.NumDocs(); d++ {
		var row []mining.Item
		for _, c := range tbl.Row(d) {
			if it := items[c]; it >= 0 {
				row = append(row, it)
			}
		}
		slices.Sort(row)
		tx[d] = row
	}
	return tx, nil
}
