package core

import (
	"context"
	"sort"
	"strings"
	"time"

	"csrank/internal/query"
	"csrank/internal/ranking"
)

// Scatter-gather execution. A document-partitioned cluster cannot run
// SearchCtx independently per shard: collection statistics (N, len(D),
// df, tc — whether over the whole collection or over the context D_P)
// are properties of the union, and a shard ranking under its local
// counts would score documents differently from a single-engine run.
// The two entry points below split one query at exactly the right seam:
//
//   - StatsFor computes the statistics this engine's documents
//     contribute. Every field the scorers consume is an integer count
//     over a disjoint document subset, so per-shard partial statistics
//     sum — exactly, with no floating-point involvement — to the
//     statistics a single engine holding the union would compute
//     (MergeCollectionStats).
//   - SearchWithStats evaluates the result set and scores it under
//     externally supplied statistics. Per-document scores are pure
//     functions of (S_q, S_d, S_c); S_d (term frequencies, document
//     length) is a local fact identical in sharded and unsharded
//     indexes, so with the merged S_c every shard produces exactly the
//     floats the single engine would.
//
// The distributed merge then needs only MergeResults' strict
// (score, docID) total order to be provably bit-identical to the
// single-engine ranking, tie-breaks included.

// StatsFor computes the collection statistics SearchCtx would rank q
// with, without evaluating the result set: whole-collection aggregates
// for context-free queries, S_c(D_P) (view-accelerated and
// budget-degradable exactly like SearchCtx) for contextual ones. In a
// document-partitioned cluster the returned statistics are one shard's
// partial addend; MergeCollectionStats sums them into the union's
// statistics. A deadline expiry degrades to approximate statistics and
// flags st.Degraded instead of failing, mirroring the search path's
// boundedness contract; explicit cancellation fails the call.
func (e *Engine) StatsFor(ctx context.Context, q query.Query) (cs ranking.CollectionStats, st ExecStats, err error) {
	x, cs, err := e.statsCarried(ctx, q, "", &st)
	x.release()
	return cs, st, err
}

// statsCarried is StatsFor for a caller that goes on to score: it also
// returns the exec the statistics phase ran on — the analyzed query, its
// lists and whatever context the plan materialized — for scoreCarried.
// plan is statsPhase's ("" lets the engine choose). The exec is returned
// on failure too, once it exists; the caller releases it either way.
func (e *Engine) statsCarried(ctx context.Context, q query.Query, plan Plan, st *ExecStats) (x *exec, cs ranking.CollectionStats, err error) {
	err = e.frame(ctx, "statistics phase", st, func(ctx context.Context) (serr error) {
		if x, serr = e.prepare(q, st); serr != nil {
			return serr
		}
		cs, serr = e.statsPhase(ctx, x, plan, true)
		return serr
	})
	return x, cs, err
}

// SearchWithStats evaluates q's result set on this engine's documents
// and ranks it under the caller-supplied collection statistics instead
// of computing its own — the scoring half of a scatter-gather query,
// run after the cluster merged every shard's StatsFor contribution.
// Results use this engine's docID space; st.Plan is left empty (the
// plan is a property of the statistics phase). Deadline expiry degrades
// to flagged partial results exactly like SearchCtx. cs is only read,
// so one merged statistics value can fan out to every shard
// concurrently.
func (e *Engine) SearchWithStats(ctx context.Context, q query.Query, k int, cs ranking.CollectionStats) (res []Result, st ExecStats, err error) {
	err = e.run(ctx, q, "scatter-gather scoring", &st, func(ctx context.Context, x *exec) (serr error) {
		res, serr = e.scoreUnder(ctx, x, k, cs)
		return serr
	})
	return res, st, err
}

// scoreCarried is SearchWithStats on the exec statsCarried returned:
// nothing is analyzed or resolved again, and the conjunction runs against
// the context the statistics phase materialized. It reports into st, so
// a re-scoring round starts from a fresh report.
func (e *Engine) scoreCarried(ctx context.Context, x *exec, k int, cs ranking.CollectionStats, st *ExecStats) (res []Result, err error) {
	x.st = st
	err = e.frame(ctx, "scatter-gather scoring", st, func(ctx context.Context) (serr error) {
		res, serr = e.scoreUnder(ctx, x, k, cs)
		return serr
	})
	return res, err
}

// scoreUnder is the scoring half's body: the dead-context short circuit,
// then the scoring phase.
func (e *Engine) scoreUnder(ctx context.Context, x *exec, k int, cs ranking.CollectionStats) ([]Result, error) {
	if stop, res, err := shortCircuit(ctx, x.st); stop {
		return res, err
	}
	return e.scorePhase(ctx, x, cs, k)
}

// globalStats assembles whole-collection statistics for the analyzed
// keywords: O(#keywords) reads of precomputed aggregates.
func (e *Engine) globalStats(a analyzed) ranking.CollectionStats {
	cs := ranking.CollectionStats{
		N:        e.globalN,
		TotalLen: e.globalLen,
		DF:       make(map[string]int64, len(a.kwTerms)),
		TC:       make(map[string]int64, len(a.kwTerms)),
	}
	for _, w := range a.kwTerms {
		cs.DF[w] = e.ix.DF(e.contentField, w)
		cs.TC[w] = e.ix.TotalTF(e.contentField, w)
	}
	return cs
}

// MergeCollectionStats sums per-shard partial collection statistics
// into the statistics of the union. Every summed field is an int64
// count over disjoint document sets — |D|, len(D), df(w, D), tc(w, D)
// are all additive under disjoint union — so the result is exactly (not
// approximately) the statistics a single engine holding all documents
// would compute, regardless of summation order.
func MergeCollectionStats(parts ...ranking.CollectionStats) ranking.CollectionStats {
	m := ranking.CollectionStats{
		DF: make(map[string]int64),
		TC: make(map[string]int64),
	}
	for _, p := range parts {
		m.N += p.N
		m.TotalLen += p.TotalLen
		for w, v := range p.DF {
			m.DF[w] += v
		}
		for w, v := range p.TC {
			m.TC[w] += v
		}
	}
	return m
}

// PlanMixed marks a merged execution whose shards reported different
// plans (e.g. a view answered the context on some shards while others
// fell back to the straightforward aggregation).
const PlanMixed Plan = "mixed"

// MergeStats aggregates per-shard (and per-phase) execution reports
// into one cluster-level ExecStats: cost counters, result/context
// cardinalities, fallback keyword counts and pruning counters sum;
// Degraded and UsedView are sticky ORs; phase timings and Elapsed take
// the maximum, the wall-clock shape of a concurrent fan-out. The
// merged DegradedReason is the *union* of every part's individual
// reasons (each part's "; "-joined list is split back into its atoms),
// deduplicated and sorted, so the merged reason is deterministic no
// matter which shard reported first and no reason is lost when shards
// degrade differently. Parts with an empty Plan (scoring-phase reports)
// do not vote on the merged plan.
func MergeStats(parts ...ExecStats) ExecStats {
	var m ExecStats
	var reasons []string
	seen := map[string]bool{}
	for _, p := range parts {
		m.Stats.Add(p.Stats)
		if p.Plan != "" {
			switch {
			case m.Plan == "":
				m.Plan = p.Plan
			case m.Plan != p.Plan:
				m.Plan = PlanMixed
			}
		}
		m.UsedView = m.UsedView || p.UsedView
		m.ViewSize += p.ViewSize
		m.FallbackKeywords += p.FallbackKeywords
		m.ResultSize += p.ResultSize
		m.ContextSize += p.ContextSize
		if p.Degraded {
			m.Degraded = true
			for _, r := range strings.Split(p.DegradedReason, "; ") {
				if r != "" && !seen[r] {
					seen[r] = true
					reasons = append(reasons, r)
				}
			}
		}
		m.Pruning.add(p.Pruning)
		m.Phases = maxPhases(m.Phases, p.Phases)
		if p.Elapsed > m.Elapsed {
			m.Elapsed = p.Elapsed
		}
	}
	if len(reasons) > 0 {
		sort.Strings(reasons)
		m.DegradedReason = strings.Join(reasons, "; ")
	}
	return m
}

func maxPhases(a, b PhaseTimings) PhaseTimings {
	return PhaseTimings{
		Analyze: maxDuration(a.Analyze, b.Analyze),
		Stats:   maxDuration(a.Stats, b.Stats),
		Score:   maxDuration(a.Score, b.Score),
	}
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
