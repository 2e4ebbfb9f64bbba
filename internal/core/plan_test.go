package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// TestExplainMatchesExecution: Explain is the plan Search runs. Over
// TestRandomizedPlanEquivalence's random corpus and query generator, with
// a catalog of one small and one wide view (CostBased turns the wide one
// down for one-keyword, one-term contexts), every query runs twice per
// catalog state and CostBased setting, and both runs report the Plan,
// UsedView, ViewSize and FallbackKeywords that Explain predicts — a
// repeat is evaluated exactly like a first run. The catalog arrives and
// leaves by SwapCatalog, so the plans flip with it, and every
// configuration returns the same ranking bit for bit: the plan changes
// where S_c(D_P) comes from, never its value.
func TestExplainMatchesExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ix, meshTerms, words := randomCollection(t, rng, 400, 12, 6)
	tbl := widetable.FromIndex(ix, words)
	small, err := views.Materialize(tbl, meshTerms[:3], words[:3])
	if err != nil {
		t.Fatal(err)
	}
	wide, err := views.Materialize(tbl, meshTerms, words[:2])
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{small, wide}, 1, 1<<20)

	queries := []query.Query{
		{Keywords: words[:2]},
		{Keywords: words[:1], Context: []string{"nosuchterm"}},
	}
	for i := 0; i < 40; i++ {
		queries = append(queries, randomQuery(rng, meshTerms, words))
	}

	type config struct {
		costBased bool
		phase, q  int
	}
	plans := map[config]Plan{}
	want := make([][]Result, len(queries))
	fallbackViews := 0
	for _, costBased := range []bool{false, true} {
		e := New(ix, nil, Options{CostBased: costBased})
		for phase, c := range []*views.Catalog{nil, cat, nil} {
			e.SwapCatalog(c)
			if e.Catalog() != c {
				t.Fatal("Catalog() does not reflect the swap")
			}
			for qi, q := range queries {
				label := fmt.Sprintf("cost=%v catalog=%v q=%v", costBased, c != nil, q)
				ex, err := e.Explain(q)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for run := 1; run <= 2; run++ {
					res, st, err := e.Search(context.Background(), q, 10, "")
					if err != nil {
						t.Fatalf("%s run %d: %v", label, run, err)
					}
					if st.Plan != ex.Plan || st.UsedView != (ex.Plan == PlanView) ||
						st.ViewSize != ex.ViewSize || st.FallbackKeywords != len(ex.FallbackKeywords) {
						t.Fatalf("%s run %d: ran plan %q (view %v, size %d, %d fallback); Explain predicts %q (size %d, fallback %v)",
							label, run, st.Plan, st.UsedView, st.ViewSize, st.FallbackKeywords,
							ex.Plan, ex.ViewSize, ex.FallbackKeywords)
					}
					if want[qi] == nil {
						want[qi] = res
					}
					assertBitIdentical(t, label, want[qi], res)
				}
				plans[config{costBased, phase, qi}] = ex.Plan
				if ex.Plan == PlanView && len(ex.FallbackKeywords) > 0 {
					fallbackViews++
				}
			}
		}
	}

	// The matrix must reach every plan change it claims to cover: the
	// swaps turning straightforward into view and back, and the cost
	// model turning a usable view down.
	swapped, costed := false, false
	for qi := range queries {
		if plans[config{false, 0, qi}] == PlanStraightforward && plans[config{false, 1, qi}] == PlanView &&
			plans[config{false, 2, qi}] == PlanStraightforward {
			swapped = true
		}
		if plans[config{false, 1, qi}] == PlanView && plans[config{true, 1, qi}] == PlanStraightforward {
			costed = true
		}
	}
	if !swapped || !costed || fallbackViews == 0 {
		t.Fatalf("matrix too narrow: swap flip %v, cost-based flip %v, %d view plans with fallback keywords",
			swapped, costed, fallbackViews)
	}
}

func TestCostBasedPrefersStraightforwardForTinyContexts(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, nil)
	// One view covering both predicate terms; "neoplasms ∧
	// digestive_system" is an (empty) tiny context, yet the view is
	// usable for it.
	v, err := views.Materialize(tbl, []string{"digestive_system", "neoplasms"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 100, 4096)

	always := New(ix, cat, Options{})
	costed := New(ix, cat, Options{CostBased: true})

	// Large context: both engines should use the view (its size, ≤ 4
	// groups, undercuts Σ|L_m| ≈ 302 × (n+1)).
	big := query.MustParse("pancreas leukemia | digestive_system")
	_, stAlways, err := always.Search(context.Background(), big, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	_, stCosted, err := costed.Search(context.Background(), big, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if !stAlways.UsedView || !stCosted.UsedView {
		t.Errorf("large context: views not used (always=%v, costed=%v)",
			stAlways.UsedView, stCosted.UsedView)
	}
}

func TestCostBasedSkipsViewWhenScanDominates(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, nil)
	// Inflate the view with many irrelevant keyword columns so its group
	// count dwarfs the straightforward bound for a rare context term.
	terms := ix.Terms("mesh")
	v, err := views.Materialize(tbl, terms, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Give the collection a rare predicate by picking the context with
	// the smallest list: here both terms are frequent, so synthesize the
	// comparison directly through chooseView.
	e := New(ix, views.NewCatalog([]*views.View{v}, 100, 4096), Options{CostBased: true})
	a := analyzed{kwTerms: []string{"w"}, context: []string{"digestive_system"}}
	ctx := []*postings.List{ix.Postings("mesh", "digestive_system")}
	// straight bound = 302 × 2 = 604; decision tracks the view size.
	if v.Size() < 604 && e.chooseView(e.Catalog(), a, ctx) != v {
		t.Error("cheap view rejected")
	}
	if v.Size() >= 604 && e.chooseView(e.Catalog(), a, ctx) != nil {
		t.Error("expensive view accepted")
	}
	// Nil context lists (unknown term): bound 0, view never worthwhile.
	if e.chooseView(e.Catalog(), a, []*postings.List{nil}) != nil {
		t.Error("view accepted against empty context bound")
	}
}
