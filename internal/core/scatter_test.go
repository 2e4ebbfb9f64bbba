package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// TestStatsForPlusSearchWithStatsEqualsSearch: every entry point is a
// composition of the same two phases, so on one engine each case runs
// one query through all of them — Search under each plan, the two
// scatter-gather halves back to back, and SearchSlicesPartial over the
// engine as a one-slice collection with explicit globals — against one
// expected ranking, bit-for-bit (same docIDs, same score bits, same
// order), with equal Plan/ContextSize/Degraded: contextual and
// context-free queries, with and without views, pruning on and off.
func TestStatsForPlusSearchWithStatsEqualsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ix, meshTerms, words := randomCollection(t, rng, 500, 8, 8)
	tbl := widetable.FromIndex(ix, words)
	v, err := views.Materialize(tbl, meshTerms[:3], words)
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 1, 1<<20)
	ctx := context.Background()
	globals := make([]uint32, ix.NumDocs())
	for i := range globals {
		globals[i] = uint32(i)
	}

	queries := []query.Query{
		{Keywords: []string{words[0], words[1]}},
		{Keywords: []string{words[2]}, Context: meshTerms[:2]},
		{Keywords: []string{words[0], words[3]}, Context: meshTerms[1:3]},
	}
	for _, pruning := range []bool{false, true} {
		for _, withCat := range []bool{false, true} {
			c := cat
			if !withCat {
				c = nil
			}
			eng := New(ix, c, Options{Pruning: pruning})
			for _, q := range queries {
				for _, k := range []int{0, 5, 50} {
					name := fmt.Sprintf("pruning=%v cat=%v q=%v k=%d", pruning, withCat, q, k)
					want, wantSt, err := eng.Search(ctx, q, k, "")
					if err != nil {
						t.Fatal(err)
					}
					// same checks one entry's answer against the expected one.
					// The forced plans and SearchWithStats report a different
					// (or no) plan by design; they pass plan "".
					same := func(entry string, got []Result, st ExecStats, plan Plan, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s %s: %v", name, entry, err)
						}
						if len(got) != len(want) {
							t.Fatalf("%s %s: %d results, want %d", name, entry, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s %s rank %d: %+v, want %+v", name, entry, i, got[i], want[i])
							}
						}
						if st.Degraded != wantSt.Degraded {
							t.Fatalf("%s %s: Degraded %v (%s), want %v", name, entry, st.Degraded, st.DegradedReason, wantSt.Degraded)
						}
						if plan != "" && (st.Plan != plan || st.ContextSize != wantSt.ContextSize) {
							t.Fatalf("%s %s: plan %q |D_P|=%d, want %q |D_P|=%d",
								name, entry, st.Plan, st.ContextSize, plan, wantSt.ContextSize)
						}
					}

					// Exact S_c(D_P) does not depend on its source: the forced
					// straightforward plan ranks identically, views or not.
					sfPlan := PlanStraightforward
					if !q.IsContextual() {
						sfPlan = PlanConventional
					}
					got, st, err := eng.Search(ctx, q, k, PlanStraightforward)
					same("Search/straightforward", got, st, sfPlan, err)

					cs, statsSt, err := eng.StatsFor(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					got, scoreSt, err := eng.SearchWithStats(ctx, q, k, cs)
					same("StatsFor+SearchWithStats", got, MergeStats(statsSt, scoreSt), wantSt.Plan, err)

					hits, per, _, err := SearchSlicesPartial(ctx, []Slice{{Eng: eng, Globals: globals}}, q, k, SliceOptions{MinSlices: 1})
					got = make([]Result, len(hits))
					for i, h := range hits {
						got[i] = Result{DocID: h.Global, Score: h.Score}
					}
					same("SearchSlicesPartial/1", got, MergeStats(per...), wantSt.Plan, err)

					// The forced conventional plan is the same result set ranked
					// under whole-collection statistics — exactly what the
					// scoring phase produces from the context-free query's
					// statistics.
					want, wantSt, err = eng.Search(ctx, q, k, PlanConventional)
					if err != nil {
						t.Fatal(err)
					}
					if wantSt.Plan != PlanConventional || wantSt.ContextSize != 0 {
						t.Fatalf("%s: forced conventional reported plan %q |D_P|=%d", name, wantSt.Plan, wantSt.ContextSize)
					}
					cs, _, err = eng.StatsFor(ctx, query.Query{Keywords: q.Keywords})
					if err != nil {
						t.Fatal(err)
					}
					got, st, err = eng.SearchWithStats(ctx, q, k, cs)
					same("Search/conventional", got, st, "", err)
				}
			}
		}
	}
}

// TestMergeResultsRankSafe: partition random result multisets, truncate
// each partition to its top k, merge, and compare against the top k of
// the full multiset — the distributed-merge safety argument, exercised
// over score ties that force the docID tie-break.
func TestMergeResultsRankSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		parts := 1 + rng.Intn(8)
		k := rng.Intn(20)
		if trial%5 == 0 {
			k = 0 // keep everything
		}
		var all []Result
		lists := make([][]Result, parts)
		for d := 0; d < n; d++ {
			// Coarse scores so ties are common.
			r := Result{DocID: uint32(d), Score: float64(rng.Intn(6))}
			all = append(all, r)
			p := rng.Intn(parts)
			lists[p] = append(lists[p], r)
		}
		for p := range lists {
			lists[p] = MergeResults(k, lists[p]) // sort + per-partition truncate
		}
		got := MergeResults(k, lists...)
		want := MergeResults(k, all)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d merged results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMergeCollectionStats: partial statistics over disjoint subsets
// sum to the union's statistics exactly.
func TestMergeCollectionStats(t *testing.T) {
	a := ranking.CollectionStats{N: 10, TotalLen: 100,
		DF: map[string]int64{"x": 3, "y": 1}, TC: map[string]int64{"x": 7, "y": 2}}
	b := ranking.CollectionStats{N: 4, TotalLen: 31,
		DF: map[string]int64{"x": 2, "z": 4}, TC: map[string]int64{"x": 5, "z": 9}}
	m := MergeCollectionStats(a, b)
	if m.N != 14 || m.TotalLen != 131 {
		t.Fatalf("N=%d TotalLen=%d, want 14/131", m.N, m.TotalLen)
	}
	if m.DF["x"] != 5 || m.DF["y"] != 1 || m.DF["z"] != 4 {
		t.Fatalf("DF merge wrong: %v", m.DF)
	}
	if m.TC["x"] != 12 || m.TC["y"] != 2 || m.TC["z"] != 9 {
		t.Fatalf("TC merge wrong: %v", m.TC)
	}
}

// TestMergeStats: counters sum, flags stick, duplicate degradation
// reasons collapse, wall-clock fields take the fan-out maximum, and
// scoring-phase parts (empty Plan) do not vote on the merged plan.
func TestMergeStats(t *testing.T) {
	s1 := ExecStats{Plan: PlanView, UsedView: true, ViewSize: 8, ResultSize: 10,
		ContextSize: 40, Elapsed: 5 * time.Millisecond}
	s1.Pruning.DocsSkipped = 3
	s2 := ExecStats{Plan: PlanStraightforward, ResultSize: 7, ContextSize: 22,
		Elapsed: 9 * time.Millisecond}
	s2.Degrade("deadline exceeded during scoring: partial top-k")
	s3 := ExecStats{ResultSize: 1} // scoring phase: no plan vote
	s3.Degrade("deadline exceeded during scoring: partial top-k")

	m := MergeStats(s1, s2, s3)
	if m.Plan != PlanMixed {
		t.Fatalf("plan %q, want %q", m.Plan, PlanMixed)
	}
	if !m.UsedView || m.ViewSize != 8 {
		t.Fatalf("view aggregation wrong: %+v", m)
	}
	if m.ResultSize != 18 || m.ContextSize != 62 {
		t.Fatalf("cardinality sums wrong: ResultSize=%d ContextSize=%d", m.ResultSize, m.ContextSize)
	}
	if !m.Degraded || m.DegradedReason != "deadline exceeded during scoring: partial top-k" {
		t.Fatalf("degradation merge wrong: %q", m.DegradedReason)
	}
	if m.Elapsed != 9*time.Millisecond {
		t.Fatalf("Elapsed %v, want max 9ms", m.Elapsed)
	}
	if m.Pruning.DocsSkipped != 3 {
		t.Fatalf("pruning merge wrong: %+v", m.Pruning)
	}
	single := MergeStats(s1)
	if single.Plan != PlanView {
		t.Fatalf("single-part plan %q, want %q", single.Plan, PlanView)
	}
}

// TestMergeStatsDegradedReasonUnion: the merged DegradedReason must be
// the deduplicated, sorted union of every part's reason atoms —
// deterministic regardless of which shard reports first, with no reason
// lost when shards degrade differently and no flag raised by healthy
// parts alone.
func TestMergeStatsDegradedReasonUnion(t *testing.T) {
	degraded := func(reasons ...string) ExecStats {
		var s ExecStats
		for _, r := range reasons {
			s.Degrade(r)
		}
		return s
	}
	cases := []struct {
		name       string
		parts      []ExecStats
		degradedOK bool
		reason     string
	}{
		{"all healthy", []ExecStats{{}, {}, {}}, false, ""},
		{"one degraded among healthy",
			[]ExecStats{{}, degraded("timeout"), {}}, true, "timeout"},
		{"identical reasons collapse",
			[]ExecStats{degraded("timeout"), degraded("timeout")}, true, "timeout"},
		{"distinct reasons sort",
			[]ExecStats{degraded("timeout"), degraded("approx stats")},
			true, "approx stats; timeout"},
		{"compound lists split into atoms",
			[]ExecStats{degraded("b", "a"), degraded("a", "c")},
			true, "a; b; c"},
		{"order of parts irrelevant",
			[]ExecStats{degraded("c"), {}, degraded("a", "b")},
			true, "a; b; c"},
		{"empty-reason degraded part keeps the flag",
			[]ExecStats{{Degraded: true}, {}}, true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := MergeStats(tc.parts...)
			if m.Degraded != tc.degradedOK {
				t.Fatalf("Degraded=%v, want %v", m.Degraded, tc.degradedOK)
			}
			if m.DegradedReason != tc.reason {
				t.Fatalf("DegradedReason %q, want %q", m.DegradedReason, tc.reason)
			}
			// Reversing the parts must give the identical merge.
			rev := make([]ExecStats, len(tc.parts))
			for i, p := range tc.parts {
				rev[len(tc.parts)-1-i] = p
			}
			if r := MergeStats(rev...); r.DegradedReason != m.DegradedReason || r.Degraded != m.Degraded {
				t.Fatalf("merge not order-independent: %q vs %q", r.DegradedReason, m.DegradedReason)
			}
		})
	}
}
