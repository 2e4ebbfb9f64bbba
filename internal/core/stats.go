package core

import (
	"context"

	"csrank/internal/postings"
	"csrank/internal/ranking"
	"csrank/internal/views"
)

// contextStats computes S_c(D_P): from the smallest usable materialized
// view (with per-keyword intersection fallback), else with the
// straightforward Figure 3 plan. cat is the catalog snapshot the query
// loaded — the one pointer every view match of this execution uses, so
// statistics never mix catalog states.
func (e *Engine) contextStats(ctx context.Context, x *exec, useViews bool, cat *views.Catalog) (ranking.CollectionStats, error) {
	if useViews && cat != nil {
		if v := cat.Match(x.a.context); v != nil && e.viewWorthwhile(v, x.a, x.preds) {
			st := x.st
			st.Plan = PlanView
			st.UsedView = true
			st.ViewSize = v.Size()
			cs, fallback, err := e.statsFromView(ctx, v, x)
			st.FallbackKeywords = fallback
			return cs, err
		}
	}
	return e.statsStraightforward(ctx, x)
}

// approximateStats assembles degraded-mode context statistics after the
// statistics budget expired before the exact S_c(D_P) computation
// finished. A usable view still answers in O(ViewSize) with no
// inverted-list work, so tracked keywords stay exact and only untracked
// ones are estimated — the whole-collection df/tc scaled to the context
// cardinality, clamped so a globally present keyword never reaches the
// scorer with a zero denominator. Without a usable view, the
// whole-collection statistics stand in unscaled: exactly the conventional
// baseline's ranking, which keeps every score finite and well-defined.
// The result is approximate by construction; the caller flags it
// Degraded, and degraded results are never cached.
func (e *Engine) approximateStats(a analyzed, useViews bool, st *ExecStats, cat *views.Catalog) ranking.CollectionStats {
	if useViews && cat != nil {
		if v := cat.Match(a.context); v != nil {
			if ans, err := v.Answer(a.context, a.kwTerms, &st.Stats); err == nil {
				st.Plan = PlanView
				st.UsedView = true
				st.ViewSize = v.Size()
				cs := ranking.CollectionStats{N: ans.Count, TotalLen: ans.Len, DF: ans.DF, TC: ans.TC}
				ratio := float64(ans.Count) / float64(e.globalN)
				st.FallbackKeywords = 0
				for _, w := range a.kwTerms {
					if !v.TracksWord(w) {
						st.FallbackKeywords++
						cs.DF[w] = scaleEstimate(e.ix.DF(e.contentField, w), ratio, ans.Count)
						cs.TC[w] = scaleEstimate(e.ix.TotalTF(e.contentField, w), ratio, 0)
					}
				}
				return cs
			}
		}
	}
	// No usable view: whole-collection statistics, the conventional
	// baseline's ranking inputs.
	st.Plan = PlanStraightforward
	st.UsedView = false
	st.ViewSize = 0
	st.FallbackKeywords = len(a.kwTerms)
	return e.globalStats(a)
}

// scaleEstimate scales a whole-collection count down to a context of
// ratio = |D_P| / N, clamping into [1, max] (when max > 0) so scorers
// never divide by zero for a keyword that exists globally.
func scaleEstimate(global int64, ratio float64, max int64) int64 {
	if global == 0 {
		return 0
	}
	est := int64(float64(global)*ratio + 0.5)
	if est < 1 {
		est = 1
	}
	if max > 0 && est > max {
		est = max
	}
	return est
}

// statsStraightforward computes S_c(D_P) with the Figure 3 plan: the
// context is materialized once, by intersecting the predicate lists;
// γ_count and γ_sum over it yield |D_P| and len(D_P) in the same pass;
// each keyword's df(w, D_P) and tc(w, D_P) come from intersecting L_w
// with the materialized context. Its cost is bounded by O(Σ |L_m|)
// (Proposition 3.1). The set is left in x for the scoring phase.
func (e *Engine) statsStraightforward(ctx context.Context, x *exec) (ranking.CollectionStats, error) {
	a, st := x.a, &x.st.Stats
	cs := ranking.CollectionStats{
		DF: make(map[string]int64, len(a.kwTerms)),
		TC: make(map[string]int64, len(a.kwTerms)),
	}
	set, err := postings.NewContextSet(ctx, x.preds, e.docLens, st)
	if err != nil {
		return cs, err
	}
	x.set = set
	cs.N, cs.TotalLen = set.Count(), set.Sum()
	for i, w := range a.kwTerms {
		if hook := testHookKeywordStats; hook != nil {
			hook(i)
		}
		df, tc, err := set.CountTFSum(ctx, x.kw[i], st)
		if err != nil {
			return cs, err
		}
		cs.DF[w], cs.TC[w] = df, tc
	}
	return cs, nil
}

// testHookKeywordStats, when non-nil, runs before each keyword's
// df/tc computation with the keyword's position; tests use it to inject
// panics and cancellations. Set it only while no queries are in flight.
var testHookKeywordStats func(i int)

// statsFromView answers S_c(D_P) from a materialized view: |D_P|,
// len(D_P) and the df/tc of every tracked keyword come from one scan of
// the view's groups. Untracked keywords (df < T_C) fall back to
// intersecting the keyword's posting list with the context lists,
// starting from the most selective list, so this is cheap when w is rare
// — the argument §6.2 makes for not storing df columns of infrequent
// keywords. CountTFSumCtx runs the same cursor-driven conjunction
// Intersect would, but folds df and tc in as it goes instead of
// materializing the DocID/TF slices. Returns the statistics and the
// number of fallback keywords (those reached, on error).
func (e *Engine) statsFromView(ctx context.Context, v *views.View, x *exec) (ranking.CollectionStats, int, error) {
	a, st := x.a, &x.st.Stats
	ans, err := v.AnswerCtx(ctx, a.context, a.kwTerms, st)
	if err != nil {
		return ranking.CollectionStats{}, 0, err
	}
	cs := ranking.CollectionStats{
		N:        ans.Count,
		TotalLen: ans.Len,
		DF:       ans.DF,
		TC:       ans.TC,
	}
	fallback := 0
	for i, w := range a.kwTerms {
		if v.TracksWord(w) {
			continue
		}
		fallback++
		if hook := testHookKeywordStats; hook != nil {
			hook(i)
		}
		df, tc, err := postings.CountTFSumCtx(ctx, x.kw[i], x.preds, st)
		if err != nil {
			return ranking.CollectionStats{}, fallback, err
		}
		cs.DF[w], cs.TC[w] = df, tc
	}
	return cs, fallback, nil
}

// viewWorthwhile applies the cost-based plan choice: with CostBased off,
// any usable view wins (the paper's policy); with it on, the view's scan
// cost must undercut the straightforward plan's Proposition 3.1 bound of
// (n+1)·Σ|L_m| — one context materialization plus one keyword-list
// intersection pass per keyword.
func (e *Engine) viewWorthwhile(v *views.View, a analyzed, preds []*postings.List) bool {
	if !e.costBased {
		return true
	}
	var straightBound int64
	for _, l := range preds {
		if l != nil {
			straightBound += int64(l.Len())
		}
	}
	straightBound *= int64(len(a.kwTerms) + 1)
	return int64(v.Size()) < straightBound
}

// ContextSize returns |D_P| for a context specification, answered from
// the smallest usable view when possible and by intersection otherwise.
// Workload generators use it to classify contexts against T_C.
func (e *Engine) ContextSize(context []string) int64 {
	norm := e.normalizeContext(context)
	if len(norm) == 0 {
		return e.globalN
	}
	if cat := e.catalog.Load(); cat != nil {
		if v := cat.Match(norm); v != nil {
			if ans, err := v.Answer(norm, nil, nil); err == nil {
				return ans.Count
			}
		}
	}
	_, preds := e.lists(analyzed{context: norm})
	return postings.IntersectionSize(preds, nil)
}
