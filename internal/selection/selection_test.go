package selection

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/graph"
	"csrank/internal/index"
	"csrank/internal/mining"
	"csrank/internal/postings"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// fixture is a shared small corpus + index + table for selection tests.
type fixture struct {
	c   *corpus.Corpus
	ix  *index.Index
	tbl *widetable.Table
}

var cached *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 4000
	cfg.OntologyTerms = 120
	cfg.NumTopics = 0
	c, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := c.BuildIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	tbl := widetable.FromIndex(ix, TrackedContentWords(ix, 100))
	cached = &fixture{c: c, ix: ix, tbl: tbl}
	return cached
}

func TestGreedyCoverBasics(t *testing.T) {
	combos := [][]string{
		{"a", "b"},
		{"b", "c"},
		{"a"}, // subset of {a,b}: removed by heuristic 1
		{"d", "e"},
	}
	size := func(k []string) int { return 1 << len(k) }
	got := GreedyCover(combos, size, 4096)
	// Everything fits in one view: {a,b} ∪ {b,c} ∪ {d,e}.
	if len(got) != 1 {
		t.Fatalf("GreedyCover = %v", got)
	}
	if !reflect.DeepEqual(got[0], []string{"a", "b", "c", "d", "e"}) {
		t.Errorf("view = %v", got[0])
	}
}

func TestGreedyCoverRespectsTV(t *testing.T) {
	combos := [][]string{{"a", "b"}, {"c", "d"}, {"e", "f"}}
	size := func(k []string) int { return 1 << len(k) }
	// TV = 16 allows at most 3 keywords per view (2^4 = 16 is not < 16).
	got := GreedyCover(combos, size, 16)
	for _, k := range got {
		if size(k) >= 32 {
			t.Errorf("view %v too large", k)
		}
	}
	// All combos covered.
	for _, c := range combos {
		covered := false
		for _, k := range got {
			if isSubsetStr(c, k) {
				covered = true
			}
		}
		if !covered {
			t.Errorf("combo %v uncovered", c)
		}
	}
}

func TestGreedyCoverPrefersOverlap(t *testing.T) {
	combos := [][]string{
		{"a", "b", "c"},
		{"a", "b", "d"}, // overlap 2 with the seed
		{"x", "y", "z"}, // overlap 0
	}
	calls := 0
	size := func(k []string) int { calls++; return 1 << len(k) }
	got := GreedyCover(combos, size, 40)
	// First view: seed {a,b,c} + {a,b,d} (4 keys, 2^4=16 < 40; adding
	// {x,y,z} would make 7 keys = 128 ≥ 40).
	if len(got) != 2 {
		t.Fatalf("GreedyCover = %v", got)
	}
	if calls == 0 {
		t.Error("viewSize never probed")
	}
}

func TestGreedyCoverEmpty(t *testing.T) {
	if got := GreedyCover(nil, func([]string) int { return 1 }, 10); len(got) != 0 {
		t.Errorf("GreedyCover(nil) = %v", got)
	}
}

func TestDedupKeySets(t *testing.T) {
	got := dedupKeySets([][]string{
		{"b", "a"},
		{"a", "b"},
		{"a"},
		{"c"},
		{"a", "b", "c"},
	})
	if len(got) != 1 || !reflect.DeepEqual(got[0], []string{"a", "b", "c"}) {
		t.Errorf("dedupKeySets = %v", got)
	}
}

func TestIsSubsetStr(t *testing.T) {
	if !isSubsetStr([]string{"a", "c"}, []string{"a", "b", "c"}) {
		t.Error("subset not detected")
	}
	if isSubsetStr([]string{"a", "d"}, []string{"a", "b", "c"}) {
		t.Error("non-subset detected")
	}
	if !isSubsetStr(nil, nil) {
		t.Error("empty subset")
	}
}

func TestFrequentPredicateTerms(t *testing.T) {
	f := getFixture(t)
	terms := FrequentPredicateTerms(f.ix, 100)
	if len(terms) == 0 {
		t.Fatal("no frequent predicate terms")
	}
	for _, m := range terms {
		if f.ix.DF("mesh", m) < 100 {
			t.Errorf("term %q below threshold", m)
		}
	}
	// Sorted.
	for i := 1; i < len(terms); i++ {
		if terms[i-1] >= terms[i] {
			t.Fatal("terms not sorted")
		}
	}
}

func TestTransactions(t *testing.T) {
	f := getFixture(t)
	terms := FrequentPredicateTerms(f.ix, 200)
	tx, err := transactions(f.tbl, terms)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx) != f.tbl.NumDocs() {
		t.Fatalf("tx = %d", len(tx))
	}
	// Spot-check: item i present iff the doc carries terms[i].
	for d := 0; d < 50; d++ {
		for i, m := range terms {
			col, _ := f.tbl.ColumnID(m)
			want := f.tbl.Has(d, col)
			got := false
			for _, it := range tx[d] {
				if it == mining.Item(i) {
					got = true
				}
			}
			if got != want {
				t.Fatalf("doc %d term %s: tx %v, table %v", d, m, got, want)
			}
		}
	}
	if _, err := transactions(f.tbl, []string{"ghost"}); err == nil {
		t.Error("unknown term accepted")
	}
}

func TestDataMiningBasedCoverage(t *testing.T) {
	f := getFixture(t)
	cfg := Config{TC: 400, TV: 4096, MaxCombiLen: 4}
	terms := FrequentPredicateTerms(f.ix, cfg.TC)
	res, err := DataMiningBased(f.tbl, terms, cfg, mining.Apriori)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KeySets) == 0 {
		t.Fatal("no views selected")
	}
	if res.Stats.MinedCombinations == 0 || res.Stats.MaximalCombinations == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
	holes, err := CoverageHoles(f.tbl, terms, res.KeySets, cfg.TC, cfg.MaxCombiLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(holes) != 0 {
		t.Errorf("uncovered frequent combinations: %v", holes)
	}
}

func TestMinersInterchangeable(t *testing.T) {
	f := getFixture(t)
	cfg := Config{TC: 500, TV: 4096, MaxCombiLen: 3}
	terms := FrequentPredicateTerms(f.ix, cfg.TC)
	a, err := DataMiningBased(f.tbl, terms, cfg, mining.Apriori)
	if err != nil {
		t.Fatal(err)
	}
	e, err := DataMiningBased(f.tbl, terms, cfg, mining.Eclat)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := DataMiningBased(f.tbl, terms, cfg, mining.FPGrowth)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.KeySets, e.KeySets) || !reflect.DeepEqual(a.KeySets, fp.KeySets) {
		t.Error("different miners produced different selections")
	}
}

// TestBuildKAG checks the row-counted KAG against one built pair by pair
// from inverted-list intersections: vertices, edges and every weight must
// agree. The reversed term order makes vertex order disagree with column
// order, so pairs arrive in a row with u > v.
func TestBuildKAG(t *testing.T) {
	f := getFixture(t)
	field := f.ix.Schema().PredicateField
	for _, tc := range []int64{50, 200, 400} {
		sorted := FrequentPredicateTerms(f.ix, tc)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		for _, terms := range [][]string{sorted, reversed} {
			lists := make([]*postings.List, len(terms))
			for i, m := range terms {
				lists[i] = f.ix.Postings(field, m)
			}
			want := graph.Build(terms, func(i, j int) int64 {
				return postings.IntersectionSize([]*postings.List{lists[i], lists[j]}, nil)
			}, tc)
			if edges := countEdges(want); edges == 0 {
				t.Fatalf("tc=%d: the pairwise KAG has no edges to compare", tc)
			}
			got := BuildKAG(f.tbl, terms, tc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tc=%d (%d terms, first %q): row-built KAG differs from the pairwise one", tc, len(terms), terms[0])
			}
		}
	}
}

func countEdges(g *graph.KAG) int {
	n := 0
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) {
				n++
			}
		}
	}
	return n
}

func TestGraphDecompositionBasedCoverage(t *testing.T) {
	f := getFixture(t)
	cfg := Config{TC: 400, TV: 4096, MaxCombiLen: 4}
	terms := FrequentPredicateTerms(f.ix, cfg.TC)
	res := GraphDecompositionBased(f.ix, f.tbl, terms, cfg)
	if len(res.KeySets) == 0 {
		t.Fatal("no views selected")
	}
	holes, err := CoverageHoles(f.tbl, terms, res.KeySets, cfg.TC, cfg.MaxCombiLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(holes) != 0 {
		t.Errorf("uncovered frequent combinations: %v", holes)
	}
}

func TestHybridCoverageAndMaterialization(t *testing.T) {
	f := getFixture(t)
	cfg := Config{TC: 400, TV: 4096, MaxCombiLen: 4}
	res, err := Hybrid(f.ix, f.tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	terms := FrequentPredicateTerms(f.ix, cfg.TC)
	holes, err := CoverageHoles(f.tbl, terms, res.KeySets, cfg.TC, cfg.MaxCombiLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(holes) != 0 {
		t.Errorf("uncovered frequent combinations: %v", holes)
	}
	cat, err := MaterializeAll(f.tbl, res.KeySets, f.tbl.TrackedWords(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != len(res.KeySets) {
		t.Fatalf("catalog %d views, selected %d", cat.Len(), len(res.KeySets))
	}
	for _, k := range res.KeySets {
		if n := views.EstimateSize(f.tbl, k, 0, nil); n > cfg.TV {
			t.Errorf("view %v exceeds TV: %d", k, n)
		}
	}
}

// TestSeedOnlyDrivesSampling: Seed seeds the ViewSize sampler and
// nothing else, so with SampleSize 0 (exact counting, what csbuild and
// BuildSharded both run) two seeds select the same catalog.
func TestSeedOnlyDrivesSampling(t *testing.T) {
	f := getFixture(t)
	cfg := Config{TC: int64(f.ix.NumDocs()) / 25, TV: 4096}
	var prints []string
	for _, seed := range []int64{1, 42} {
		cfg.Seed = seed
		m, err := Select(f.ix, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Catalog.Len() == 0 {
			t.Fatal("selection produced no views")
		}
		prints = append(prints, m.Catalog.Fingerprint())
	}
	if prints[0] != prints[1] {
		t.Fatalf("seeds 1 and 42 select different catalogs: %s vs %s", prints[0], prints[1])
	}
}

func TestSelectEndToEnd(t *testing.T) {
	f := getFixture(t)
	cfg := Config{TC: int64(f.ix.NumDocs()) / 25, TV: 4096}
	m, err := Select(f.ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Catalog.Len() == 0 {
		t.Fatal("empty catalog")
	}
	// Every frequent predicate term (a singleton large context) must be
	// covered by some view.
	for _, term := range FrequentPredicateTerms(f.ix, cfg.TC) {
		if m.Catalog.Match([]string{term}) == nil {
			t.Errorf("frequent term %q uncovered", term)
		}
	}
	// Sub-threshold contexts need not be covered.
	if m.Result.Stats.FrequentTerms == 0 {
		t.Error("stats not populated")
	}
}

func TestTrackedContentWords(t *testing.T) {
	f := getFixture(t)
	words := TrackedContentWords(f.ix, 200)
	if len(words) == 0 {
		t.Fatal("no tracked words")
	}
	for _, w := range words {
		if f.ix.DF("content", w) < 200 {
			t.Errorf("word %q below threshold", w)
		}
	}
}

// naivePerCombination is the strawman §5.1 dismisses: one view per mined
// maximal combination. Aggregations on the individual views are cheap,
// but the view count explodes and "matching a view for the given query at
// query time would be prohibitively expensive" — it exists as the
// baseline the greedy covering is compared against.
func naivePerCombination(tbl *widetable.Table, frequentTerms []string, cfg Config, mine Miner) (Result, error) {
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
	for _, m := range maximal {
		names := make([]string, len(m.Items))
		for j, it := range m.Items {
			names[j] = frequentTerms[it]
		}
		res.KeySets = append(res.KeySets, names)
	}
	res.KeySets = dedupKeySets(res.KeySets)
	return res, nil
}

func TestNaivePerCombination(t *testing.T) {
	f := getFixture(t)
	cfg := Config{TC: 400, TV: 4096, MaxCombiLen: 4}
	terms := FrequentPredicateTerms(f.ix, cfg.TC)
	naive, err := naivePerCombination(f.tbl, terms, cfg, mining.Eclat)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := DataMiningBased(f.tbl, terms, cfg, mining.Eclat)
	if err != nil {
		t.Fatal(err)
	}
	// The naive baseline is a valid cover …
	holes, err := CoverageHoles(f.tbl, terms, naive.KeySets, cfg.TC, cfg.MaxCombiLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(holes) != 0 {
		t.Errorf("naive selection has holes: %v", holes)
	}
	// … but needs at least as many views as the greedy covering.
	if len(naive.KeySets) < len(greedy.KeySets) {
		t.Errorf("naive %d views < greedy %d views", len(naive.KeySets), len(greedy.KeySets))
	}
}

// TestGreedyNearOptimalOnTinyInstances compares Algorithm 1 against an
// exhaustive minimal cover on instances small enough to brute-force: the
// greedy result must be a valid cover and within 2× of the optimum (the
// problem is NP-hard — Theorem 5.1 — so greedy makes no optimality
// guarantee; the factor bound catches gross regressions).
func TestGreedyNearOptimalOnTinyInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	universe := []string{"a", "b", "c", "d", "e", "f"}
	size := func(k []string) int { return 1 << len(k) }
	const tv = 17 // allows up to 4 keywords per view (2^4=16 < 17)
	for trial := 0; trial < 30; trial++ {
		var combos [][]string
		nCombos := 2 + rng.Intn(4)
		for i := 0; i < nCombos; i++ {
			var c []string
			for _, u := range universe {
				if rng.Float64() < 0.35 {
					c = append(c, u)
				}
			}
			if len(c) == 0 || len(c) > 3 {
				continue
			}
			combos = append(combos, c)
		}
		if len(combos) == 0 {
			continue
		}
		got := GreedyCover(combos, size, tv)
		// Validity: every combo covered, every view within tv… the seed
		// combo itself may exceed tv only if a single combination does,
		// which the 3-keyword cap prevents here.
		for _, c := range combos {
			covered := false
			sorted := append([]string(nil), c...)
			sort.Strings(sorted)
			for _, k := range got {
				if isSubsetStr(sorted, k) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("trial %d: combo %v uncovered by %v", trial, c, got)
			}
		}
		for _, k := range got {
			if size(k) >= 2*tv {
				t.Fatalf("trial %d: view %v grossly exceeds tv", trial, k)
			}
		}
		opt := optimalCoverSize(combos, size, tv)
		if opt > 0 && len(got) > 2*opt {
			t.Errorf("trial %d: greedy %d views vs optimal %d", trial, len(got), opt)
		}
	}
}

// optimalCoverSize brute-forces the minimum number of ≤tv views covering
// all combos, by trying all partitions of the combo set into groups whose
// union view stays under tv. Exponential; inputs are tiny.
func optimalCoverSize(combos [][]string, size func([]string) int, tv int) int {
	canon := dedupKeySets(combos)
	n := len(canon)
	if n == 0 {
		return 0
	}
	best := n
	// Assign each combo to one of up to n groups; prune by group count.
	assign := make([]int, n)
	var rec func(i, groups int)
	rec = func(i, groups int) {
		if groups >= best {
			return
		}
		if i == n {
			if groups < best {
				best = groups
			}
			return
		}
		for g := 0; g <= groups && g < n; g++ {
			assign[i] = g
			newGroups := groups
			if g == groups {
				newGroups++
			}
			// Check the union of group g stays under tv.
			var union []string
			for j := 0; j <= i; j++ {
				if assign[j] == g {
					union = unionSorted(union, canon[j])
				}
			}
			if size(union) < tv {
				rec(i+1, newGroups)
			}
		}
	}
	rec(0, 0)
	return best
}
