package selection

import (
	"csrank/internal/graph"
	"csrank/internal/index"
	"csrank/internal/mining"
	"csrank/internal/postings"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// BuildKAG constructs the Keyword Association Graph over the frequent
// predicate terms: edge weight = document co-occurrence count, with
// sub-threshold edges removed ("edges whose weights are less than T_C
// can be removed from the graph, because cliques containing such edges do
// not have high supports"). Every weight comes from one pass over the
// table's rows: each document bumps a flat n×n counter once per pair of
// frequent terms it carries, so the pass costs O(Σ_d f_d²) for f_d
// frequent terms in document d, not one list intersection per pair. A
// term with no column in the table has no documents, hence no edges.
func BuildKAG(tbl *widetable.Table, frequentTerms []string, tc int64) *graph.KAG {
	n := len(frequentTerms)
	vertex, _ := columnIndex(tbl, frequentTerms)
	cooc := make([]int64, n*n) // cooc[u*n+v], u < v
	var vs []int32
	for d := 0; d < tbl.NumDocs(); d++ {
		vs = vs[:0]
		for _, c := range tbl.Row(d) {
			if v := vertex[c]; v >= 0 {
				vs = append(vs, v)
			}
		}
		for a, u := range vs {
			for _, v := range vs[a+1:] {
				if u < v {
					cooc[int(u)*n+int(v)]++
				} else {
					cooc[int(v)*n+int(u)]++
				}
			}
		}
	}
	return graph.Build(frequentTerms, func(i, j int) int64 { return cooc[i*n+j] }, tc)
}

// supportOracle returns a SupportFunc that computes exact combination
// supports by inverted-list intersection. It is the "compute support only
// when necessary" piece of §5.2.1.
func supportOracle(ix *index.Index) graph.SupportFunc {
	field := ix.Schema().PredicateField
	return func(names []string) int64 {
		lists := make([]*postings.List, len(names))
		for i, m := range names {
			lists[i] = ix.Postings(field, m)
		}
		return postings.IntersectionSize(lists, nil)
	}
}

// GraphDecompositionBased implements the pure top-down selection of §5.2:
// decompose the KAG until pieces are coverable. Dense clique remainders
// that a single view cannot cover are still returned as (oversized) key
// sets so the result remains a valid cover; Stats.CliqueRemainders
// reports how many there were. Production use should prefer Hybrid, which
// sends those remainders through the mining-based stage instead.
func GraphDecompositionBased(ix *index.Index, tbl *widetable.Table, frequentTerms []string, cfg Config) Result {
	var res Result
	res.Stats.FrequentTerms = len(frequentTerms)
	kag := BuildKAG(tbl, frequentTerms, cfg.TC)
	sz := newSizer(tbl, cfg)
	dec := graph.Decompose(kag,
		func(names []string) bool { return sz.size(names) <= cfg.TV },
		supportOracle(ix), cfg.TC)
	res.Stats.Separators = dec.Separators
	res.Stats.SupportQueries = dec.SupportQueries
	res.Stats.CliqueRemainders = len(dec.Cliques)
	res.Stats.ViewSizeProbes = sz.probes
	res.KeySets = dedupKeySets(append(dec.Coverable, dec.Cliques...))
	return res
}

// Hybrid implements §5.3: the decomposition quickly breaks the KAG into
// mostly-coverable subgraphs; the dense clique remainders — much smaller
// than the original vocabulary — are then handled by the mining-based
// selection, whose cost is tolerable at that reduced size.
func Hybrid(ix *index.Index, tbl *widetable.Table, cfg Config) (Result, error) {
	frequentTerms := FrequentPredicateTerms(ix, cfg.TC)
	var res Result
	res.Stats.FrequentTerms = len(frequentTerms)

	kag := BuildKAG(tbl, frequentTerms, cfg.TC)
	sz := newSizer(tbl, cfg)
	dec := graph.Decompose(kag,
		func(names []string) bool { return sz.size(names) <= cfg.TV },
		supportOracle(ix), cfg.TC)
	res.Stats.Separators = dec.Separators
	res.Stats.SupportQueries = dec.SupportQueries
	res.Stats.CliqueRemainders = len(dec.Cliques)

	keySets := dec.Coverable
	for _, clique := range dec.Cliques {
		sub, err := DataMiningBased(tbl, clique, cfg, mining.Eclat)
		if err != nil {
			return res, err
		}
		res.Stats.MinedCombinations += sub.Stats.MinedCombinations
		res.Stats.MaximalCombinations += sub.Stats.MaximalCombinations
		res.Stats.ViewSizeProbes += sub.Stats.ViewSizeProbes
		keySets = append(keySets, sub.KeySets...)
	}
	res.Stats.ViewSizeProbes += sz.probes
	res.KeySets = dedupKeySets(keySets)
	return res, nil
}

// Materialized bundles the outcome of a full selection run: the view
// catalog ready for query evaluation, the wide table it was built from,
// and the selection work counters.
type Materialized struct {
	Catalog *views.Catalog
	Table   *widetable.Table
	Result  Result
}

// Select runs the Hybrid selection and materializes the chosen views into
// a catalog — the one-call path used by engines and tools. The views
// track df/tc columns for content keywords with df ≥ T_C.
func Select(ix *index.Index, cfg Config) (*Materialized, error) {
	tbl := widetable.FromIndex(ix, TrackedContentWords(ix, cfg.TC))
	res, err := Hybrid(ix, tbl, cfg)
	if err != nil {
		return nil, err
	}
	cat, err := MaterializeAll(tbl, res.KeySets, tbl.TrackedWords(), cfg)
	if err != nil {
		return nil, err
	}
	return &Materialized{Catalog: cat, Table: tbl, Result: res}, nil
}

// TrackedContentWords returns the content-field keywords with df ≥ T_C:
// the words whose df/tc columns the views store (§6.2's 910 keywords).
func TrackedContentWords(ix *index.Index, tc int64) []string {
	return ix.TermsWithMinDF(ix.Schema().ContentField, tc)
}
