package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"csrank/internal/query"
)

// TestCarriedExecScoresLikeStandalone: scoring on the exec the statistics
// phase ran on — no second analysis, the conjunction run against the
// materialized context — must return exactly what the standalone
// SearchWithStats returns, over a corpus whose contexts span three
// containers (one of them empty in the first container alone), pruned
// and exhaustive. The set exists exactly when the straightforward plan
// ran: a view answering and a context-free query leave the exec without
// one.
func TestCarriedExecScoresLikeStandalone(t *testing.T) {
	ix, cat := buildPrunedSystem(t)
	ctx := context.Background()
	queries := []string{
		"alpha | ctx_a ctx_b",
		"alpha beta | ctx_a ctx_b",
		"beta | ctx_b",
		"alpha beta | ctx_other ctx_b",
		"alpha | ctx_a ctx_other",        // empty context
		"alpha | ctx_even ctx_flip",      // empty in the first container only
		"alpha beta | ctx_flip ctx_even", // (two dense chunks whose AND is empty)
		"alpha | ctx_a nosuchterm",
		"nosuchword | ctx_a ctx_b",
	}
	for _, pruning := range []bool{false, true} {
		e := New(ix, nil, Options{Pruning: pruning})
		for _, qs := range queries {
			// The largest k never fills the heap: the pruned walk then
			// returns and visits every member of the conjunction.
			for _, k := range []int{10, 0, prunedCorpusDocs} {
				label := fmt.Sprintf("pruning=%v k=%d %q", pruning, k, qs)
				q := query.MustParse(qs)
				var statsSt, scoreSt ExecStats
				x, cs, err := e.statsCarried(ctx, q, "", &statsSt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if x.set == nil || statsSt.Plan != PlanStraightforward {
					t.Fatalf("%s: plan %q left set %v", label, statsSt.Plan, x.set)
				}
				if x.set.Count() != cs.N || statsSt.ContextSize != cs.N {
					t.Fatalf("%s: set holds %d documents, |D_P| = %d", label, x.set.Count(), cs.N)
				}
				got, err := e.scoreCarried(ctx, x, k, cs, &scoreSt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, wantSt, err := e.SearchWithStats(ctx, q, k, cs)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertBitIdentical(t, label, want, got)
				// The same walk runs over the same conjunction. Once the heap
				// is full a pruning walk hides members from ResultSize, and
				// how many depends on which list drives — the set may be the
				// shortest where no predicate list was.
				visitsAll := !pruning || k <= 0 || len(want) < k
				if visitsAll && scoreSt.ResultSize != wantSt.ResultSize {
					t.Fatalf("%s: carried scoring saw %d results, standalone %d",
						label, scoreSt.ResultSize, wantSt.ResultSize)
				}
				// A second round on the same exec — what a re-score after a
				// lost slice is — answers the same again.
				again, err := e.scoreCarried(ctx, x, k, cs, &scoreSt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertBitIdentical(t, label+" (second round)", want, again)
				x.release()
			}
		}
	}

	noSet := func(label string, e *Engine, q query.Query, plan Plan) {
		t.Helper()
		var st ExecStats
		x, _, err := e.statsCarried(ctx, q, "", &st)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer x.release()
		if x.set != nil || st.Plan != plan {
			t.Fatalf("%s: plan %q left set %v", label, st.Plan, x.set)
		}
	}
	noSet("view", New(ix, cat, Options{}), query.MustParse("alpha | ctx_a"), PlanView)
	noSet("context-free", New(ix, nil, Options{}), query.MustParse("alpha beta"), PlanConventional)
}

// TestSearchSlicesPartialCarriedContext: a slice lost in the scoring
// phase takes its carried exec with it. The survivors re-score — pruned
// or exhaustive, each on its own carried context — under the re-merged
// statistics, and equal a search over the survivors alone, in ranking
// and in reported work.
func TestSearchSlicesPartialCarriedContext(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	ctx := context.Background()
	for _, pruning := range []bool{false, true} {
		slices, queries := randomSlices(t, rng, 400, 4, Options{Pruning: pruning})
		for qi, q := range queries {
			for target := range slices {
				label := fmt.Sprintf("pruning=%v query %d lost slice %d", pruning, qi, target)
				hooks := make([]SliceHook, len(slices))
				hooks[target] = func(_ context.Context, phase string) {
					if phase == "score" {
						panic("injected score-phase crash")
					}
				}
				hits, per, failures, err := SearchSlicesPartial(ctx, slices, q, 10, SliceOptions{Hooks: hooks})
				if err != nil || len(failures) != 1 || failures[0].Slice != target {
					t.Fatalf("%s: failures %+v, err %v", label, failures, err)
				}
				want, wantPer, _, err := SearchSlicesPartial(ctx, without(slices, target), q, 10, SliceOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if len(hits) != len(want) {
					t.Fatalf("%s: %d hits, survivors alone give %d", label, len(hits), len(want))
				}
				for i := range want {
					if hits[i].Global != want[i].Global || hits[i].Score != want[i].Score {
						t.Fatalf("%s rank %d: %+v, survivors alone give %+v", label, i, hits[i], want[i])
					}
				}
				// The lost slice reports nothing; each survivor reports the
				// work of a search that never had the fourth slice.
				if per[target] != (ExecStats{}) {
					t.Fatalf("%s: lost slice still reports %+v", label, per[target])
				}
				for i, j := 0, 0; i < len(slices); i++ {
					if i == target {
						continue
					}
					got, ref := per[i], wantPer[j]
					j++
					if got.Plan != ref.Plan || got.ContextSize != ref.ContextSize || got.ResultSize != ref.ResultSize || got.Stats != ref.Stats {
						t.Fatalf("%s: survivor %d reports %+v, alone it reports %+v", label, i, got, ref)
					}
				}
			}
		}
	}
}
