package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/selection"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// motivatingCollection builds a handcrafted collection reproducing the
// §1.1 example: "leukemia" is globally common (neoplasms research
// dominates) but rare within the digestive-system context, where
// "pancreas" is ubiquitous. C1 emphasizes pancreas, C2 emphasizes
// leukemia; both are digestive-system citations containing both query
// terms.
func motivatingCollection(t *testing.T) (*index.Index, uint32, uint32) {
	t.Helper()
	var docs []index.Document
	add := func(content, mesh string) uint32 {
		docs = append(docs, index.Document{Fields: map[string]string{
			"title": content, "content": content, "mesh": mesh,
		}})
		return uint32(len(docs) - 1)
	}
	c1 := add("pancreas pancreas pancreas transplant complications leukemia", "digestive_system")
	c2 := add("leukemia leukemia leukemia organ failure pancreas", "digestive_system")
	for i := 0; i < 600; i++ {
		add(fmt.Sprintf("leukemia lymphoma tumor study cohort v%d", i), "neoplasms")
	}
	for i := 0; i < 300; i++ {
		mesh := "digestive_system"
		content := fmt.Sprintf("pancreas liver gastric surgery outcome v%d", i)
		if i < 5 {
			// A few digestive citations also mention leukemia so the
			// conjunctive result set is non-trivial.
			content += " leukemia"
		}
		add(content, mesh)
	}
	ix, err := index.BuildFrom(corpus.Schema(), 0, docs)
	if err != nil {
		t.Fatal(err)
	}
	return ix, c1, c2
}

func TestMotivatingExampleRankReversal(t *testing.T) {
	ix, c1, c2 := motivatingCollection(t)
	e := New(ix, nil, Options{})
	q := query.MustParse("pancreas leukemia | digestive_system")

	conv, convSt, err := e.Search(context.Background(), q, 10, PlanConventional)
	if err != nil {
		t.Fatal(err)
	}
	ctx, ctxSt, err := e.Search(context.Background(), q, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if convSt.Plan != PlanConventional || ctxSt.Plan != PlanStraightforward {
		t.Errorf("plans = %s, %s", convSt.Plan, ctxSt.Plan)
	}
	// Identical unranked result sets (query semantics).
	if convSt.ResultSize != ctxSt.ResultSize || convSt.ResultSize != 7 {
		t.Errorf("result sizes = %d, %d (want 7)", convSt.ResultSize, ctxSt.ResultSize)
	}
	pos := func(rs []Result, d uint32) int {
		for i, r := range rs {
			if r.DocID == d {
				return i
			}
		}
		return -1
	}
	// Conventional: pancreas is globally rarer → C1 above C2.
	if pos(conv, c1) >= pos(conv, c2) || pos(conv, c1) < 0 {
		t.Errorf("conventional order: C1 at %d, C2 at %d", pos(conv, c1), pos(conv, c2))
	}
	// Context-sensitive: leukemia is rare among digestive docs → C2 above C1.
	if pos(ctx, c2) >= pos(ctx, c1) || pos(ctx, c2) < 0 {
		t.Errorf("context order: C1 at %d, C2 at %d", pos(ctx, c1), pos(ctx, c2))
	}
	if ctxSt.ContextSize != 302 {
		t.Errorf("ContextSize = %d, want 302", ctxSt.ContextSize)
	}
}

func TestViewAndStraightforwardAgree(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, []string{"pancreas", "leukemia"})
	v, err := views.Materialize(tbl, []string{"digestive_system", "neoplasms"}, []string{"pancreas", "leukemia"})
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 100, 4096)
	e := New(ix, cat, Options{})
	q := query.MustParse("pancreas leukemia | digestive_system")

	viaView, viewSt, err := e.Search(context.Background(), q, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	direct, directSt, err := e.Search(context.Background(), q, 0, PlanStraightforward)
	if err != nil {
		t.Fatal(err)
	}
	if !viewSt.UsedView || viewSt.Plan != PlanView {
		t.Fatalf("view not used: %+v", viewSt)
	}
	if directSt.UsedView {
		t.Fatal("straightforward used a view")
	}
	if len(viaView) != len(direct) {
		t.Fatalf("result counts differ: %d vs %d", len(viaView), len(direct))
	}
	for i := range viaView {
		if viaView[i].DocID != direct[i].DocID || math.Abs(viaView[i].Score-direct[i].Score) > 1e-12 {
			t.Fatalf("rank %d differs: %+v vs %+v", i, viaView[i], direct[i])
		}
	}
	if viewSt.ViewSize == 0 || viewSt.ViewGroupsScanned == 0 {
		t.Errorf("view stats not recorded: %+v", viewSt)
	}
	if viewSt.FallbackKeywords != 0 {
		t.Errorf("unexpected fallbacks: %d", viewSt.FallbackKeywords)
	}
}

func TestViewFallbackForUntrackedKeyword(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, []string{"pancreas"}) // leukemia untracked
	v, err := views.Materialize(tbl, []string{"digestive_system"}, []string{"pancreas"})
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 100, 4096)
	e := New(ix, cat, Options{})
	q := query.MustParse("pancreas leukemia | digestive_system")

	viaView, viewSt, err := e.Search(context.Background(), q, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !viewSt.UsedView || viewSt.FallbackKeywords != 1 {
		t.Fatalf("stats = %+v, want view with 1 fallback", viewSt)
	}
	direct, _, err := e.Search(context.Background(), q, 0, PlanStraightforward)
	if err != nil {
		t.Fatal(err)
	}
	for i := range viaView {
		if viaView[i].DocID != direct[i].DocID || math.Abs(viaView[i].Score-direct[i].Score) > 1e-12 {
			t.Fatalf("rank %d differs with fallback: %+v vs %+v", i, viaView[i], direct[i])
		}
	}
}

func TestUncoveredContextFallsBack(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, nil)
	v, err := views.Materialize(tbl, []string{"neoplasms"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 100, 4096)
	e := New(ix, cat, Options{})
	_, st, err := e.Search(context.Background(), query.MustParse("pancreas leukemia | digestive_system"), 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.UsedView || st.Plan != PlanStraightforward {
		t.Errorf("expected straightforward fallback, got %+v", st)
	}
}

func TestNonContextualQueryRoutesToConventional(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	e := New(ix, nil, Options{})
	_, st, err := e.Search(context.Background(), query.MustParse("leukemia"), 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan != PlanConventional {
		t.Errorf("plan = %s", st.Plan)
	}
	// Context-sensitive entry point with empty context also degrades.
	_, st2, err := e.Search(context.Background(), query.Query{Keywords: []string{"leukemia"}}, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Plan != PlanConventional {
		t.Errorf("plan = %s", st2.Plan)
	}
}

func TestMissingTermsGiveEmptyResults(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	e := New(ix, nil, Options{})
	res, st, err := e.Search(context.Background(), query.MustParse("xyzzy | digestive_system"), 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 || st.ResultSize != 0 {
		t.Errorf("results = %v", res)
	}
	// Unknown context term: empty too.
	res, _, err = e.Search(context.Background(), query.MustParse("pancreas | no_such_context"), 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("results = %v", res)
	}
}

func TestQueryValidationErrors(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	e := New(ix, nil, Options{})
	if _, _, err := e.Search(context.Background(), query.Query{}, 5, ""); err == nil {
		t.Error("empty query accepted")
	}
	// Keywords that analyze away entirely (stopwords).
	if _, _, err := e.Search(context.Background(), query.Query{Keywords: []string{"the", "of"}}, 5, ""); err == nil {
		t.Error("stopword-only query accepted")
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		rs := make([]Result, n)
		for i := range rs {
			rs[i] = Result{DocID: uint32(i), Score: math.Floor(rng.Float64()*20) / 4}
		}
		k := 1 + rng.Intn(20)
		top := newTopK(k)
		all := newTopK(0)
		for _, r := range rs {
			top.push(r)
			all.push(r)
		}
		full := all.results()
		got := top.results()
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(got) != wantLen {
			t.Fatalf("top-k returned %d, want %d", len(got), wantLen)
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("trial %d rank %d: %+v != %+v", trial, i, got[i], full[i])
			}
		}
		// Full results are sorted desc by score, asc by DocID.
		if !sort.SliceIsSorted(full, func(i, j int) bool { return worseThan(full[j], full[i]) }) {
			t.Fatal("full results unsorted")
		}
	}
}

func TestContextSize(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	e := New(ix, nil, Options{})
	if got := e.ContextSize([]string{"digestive_system"}); got != 302 {
		t.Errorf("ContextSize = %d", got)
	}
	if got := e.ContextSize([]string{"digestive_system", "neoplasms"}); got != 0 {
		t.Errorf("disjoint ContextSize = %d", got)
	}
	if got := e.ContextSize(nil); got != int64(ix.NumDocs()) {
		t.Errorf("empty ContextSize = %d", got)
	}
}

func TestContextSizeUsesViews(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, nil)
	v, _ := views.Materialize(tbl, []string{"digestive_system", "neoplasms"}, nil)
	cat := views.NewCatalog([]*views.View{v}, 100, 4096)
	e := New(ix, cat, Options{})
	if got := e.ContextSize([]string{"digestive_system"}); got != 302 {
		t.Errorf("view-based ContextSize = %d", got)
	}
}

func TestAccessors(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	e := New(ix, nil, Options{Scorer: ranking.NewBM25()})
	if e.Index() != ix || e.Catalog() != nil {
		t.Error("accessors wrong")
	}
	if e.scorer.Name() != "bm25" {
		t.Error("scorer not honored")
	}
}

func TestAlternativeScorersAgreeAcrossPlans(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, []string{"pancreas", "leukemia"})
	v, _ := views.Materialize(tbl, []string{"digestive_system"}, []string{"pancreas", "leukemia"})
	cat := views.NewCatalog([]*views.View{v}, 100, 4096)
	q := query.MustParse("pancreas leukemia | digestive_system")
	for _, s := range []ranking.Scorer{ranking.NewBM25(), ranking.NewDirichletLM()} {
		e := New(ix, cat, Options{Scorer: s})
		a, _, err := e.Search(context.Background(), q, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := e.Search(context.Background(), q, 0, PlanStraightforward)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].DocID != b[i].DocID || math.Abs(a[i].Score-b[i].Score) > 1e-9 {
				t.Fatalf("%s: plans disagree at rank %d", s.Name(), i)
			}
		}
	}
}

// TestEndToEndWithSelectedViews wires the full §4+§5 pipeline: generate a
// corpus, select views with the hybrid algorithm, and verify that queries
// over large contexts use views and agree with the straightforward plan.
func TestEndToEndWithSelectedViews(t *testing.T) {
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
	selCfg := selection.Config{TC: int64(cfg.NumDocs) / 25, TV: 4096}
	m, err := selection.Select(ix, selCfg)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ix, m.Catalog, Options{})

	// Pick a frequent predicate term and a frequent content word.
	terms := selection.FrequentPredicateTerms(ix, selCfg.TC)
	if len(terms) == 0 {
		t.Fatal("no frequent terms")
	}
	words := selection.TrackedContentWords(ix, 50)
	if len(words) == 0 {
		t.Fatal("no query words")
	}
	tested := 0
	for _, term := range terms[:min(8, len(terms))] {
		q := query.Query{Keywords: []string{words[0], words[min(3, len(words)-1)]}, Context: []string{term}}
		viaView, st, err := e.Search(context.Background(), q, 20, "")
		if err != nil {
			t.Fatal(err)
		}
		if !st.UsedView {
			t.Errorf("context %q (size %d ≥ T_C) did not use a view", term, e.ContextSize([]string{term}))
			continue
		}
		direct, _, err := e.Search(context.Background(), q, 20, PlanStraightforward)
		if err != nil {
			t.Fatal(err)
		}
		if len(viaView) != len(direct) {
			t.Fatalf("context %q: result lengths differ", term)
		}
		for i := range viaView {
			if viaView[i].DocID != direct[i].DocID || math.Abs(viaView[i].Score-direct[i].Score) > 1e-9 {
				t.Fatalf("context %q rank %d: view %+v vs direct %+v", term, i, viaView[i], direct[i])
			}
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no contexts tested")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestNilStatsAndCostBounds(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	e := New(ix, nil, Options{})
	q := query.MustParse("pancreas leukemia | digestive_system")
	_, st, err := e.Search(context.Background(), q, 10, PlanStraightforward)
	if err != nil {
		t.Fatal(err)
	}
	// Proposition 3.1: list work bounded by total list lengths involved.
	var bound int64
	for _, w := range []string{"pancreas", "leukemia"} {
		bound += 3 * ix.DF("content", w) // each keyword list scanned ≤ 3 times (result set + its own stats + others' seeks)
	}
	bound += 4 * ix.DF("mesh", "digestive_system") // context list reused per stat
	if st.ListWork() > bound*2 {
		t.Errorf("list work %d far exceeds the Prop 3.1 bound scale %d", st.ListWork(), bound)
	}
	if st.AggregatedEntries == 0 {
		t.Error("no aggregation cost recorded for the straightforward plan")
	}
}

// TestConcurrentSearches exercises the engine from many goroutines; the
// engine documents itself as safe for concurrent use (run under -race in
// development).
func TestConcurrentSearches(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, []string{"pancreas", "leukemia"})
	v, err := views.Materialize(tbl, []string{"digestive_system"}, []string{"pancreas", "leukemia"})
	if err != nil {
		t.Fatal(err)
	}
	e := New(ix, views.NewCatalog([]*views.View{v}, 100, 4096), Options{})
	q := query.MustParse("pancreas leukemia | digestive_system")
	want, _, err := e.Search(context.Background(), q, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, _, err := e.Search(context.Background(), q, 5, "")
				if err != nil {
					errs <- err
					return
				}
				for j := range want {
					if got[j].DocID != want[j].DocID {
						errs <- fmt.Errorf("rank %d changed under concurrency", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
