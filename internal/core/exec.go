package core

import (
	"context"
	"errors"
	"time"

	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/ranking"
)

// The two-phase executor. Formula 2 ranks every plan with the same
// f(S_q, S_d, S_c); only the source of S_c differs. So a query is a
// statistics phase (statsPhase — the plan is its parameter) followed by
// a scoring phase (scorePhase — one deadline/degrade ladder) on one exec,
// each inside its own frame. SearchSlicesPartial runs the phases on every
// slice, merging statistics in between and carrying each slice's exec
// across (statsCarried, scoreCarried); Search is its one-slice case, and
// StatsFor and SearchWithStats expose the halves on their own.

// exec is one query's per-engine execution state: the analyzed query,
// its posting lists (nil = term absent), the context set the
// straightforward plan materialized (nil until it has, and whenever a
// view or approximate statistics answered instead), and the report the
// running phase writes into. It is built once per query and engine by
// prepare and carried from the statistics phase into the scoring phase
// across SearchSlicesPartial's scatter rounds, and whoever carries it
// releases it.
type exec struct {
	a         analyzed
	kw, preds []*postings.List
	set       *postings.ContextSet
	st        *ExecStats
}

// scorePreds returns the predicate lists the scoring phase conjoins the
// keywords with: the materialized context when the statistics phase left
// one — one list in place of |P| — else the query's predicate lists.
func (x *exec) scorePreds() []*postings.List {
	if x.set != nil {
		return x.set.Preds()
	}
	return x.preds
}

// release returns the context set to its pool (a nil exec has none),
// once the query's last phase has returned.
func (x *exec) release() {
	if x != nil {
		x.set.Release()
		x.set = nil
	}
}

// frame is what every phase of every entry point runs inside: the
// per-phase Deadline, the final panic boundary (what names the phase in
// the recovered error), the quarantine note and the Elapsed clock.
func (e *Engine) frame(ctx context.Context, what string, st *ExecStats, body func(ctx context.Context) error) (err error) {
	if e.deadline > 0 {
		// Layer the per-phase Deadline onto whatever the caller's context
		// already carries.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.deadline)
		defer cancel()
	}
	defer recoverToError(&err, what)
	defer noteQuarantine(st)
	start := time.Now()
	defer func() { st.Elapsed = time.Since(start) }()
	return body(ctx)
}

// prepare analyzes q and resolves its posting lists — once per query and
// engine, whichever phases follow.
func (e *Engine) prepare(q query.Query, st *ExecStats) (*exec, error) {
	start := time.Now()
	a, err := e.analyze(q)
	if err != nil {
		return nil, err
	}
	st.Phases.Analyze = time.Since(start)
	kw, preds := e.lists(a)
	return &exec{a: a, kw: kw, preds: preds, st: st}, nil
}

// statsPhase computes the collection statistics the query ranks with.
// plan selects the source: PlanConventional forces whole-collection
// aggregates, PlanStraightforward forces the §3.1 aggregation, "" picks
// conventional for a query without effective context and otherwise the
// smallest usable view, falling back to straightforward. Contextual
// statistics run under Options.StatsBudget; when only the budget
// expires the phase falls back to approximate statistics — bounded
// work, flagged result — per the hybrid philosophy. A merge needs an
// addend from every slice, so an expired query deadline degrades the same
// way; only cancellations, panics and unusable views fail the phase.
func (e *Engine) statsPhase(ctx context.Context, x *exec, plan Plan) (cs ranking.CollectionStats, err error) {
	st := x.st
	tStats := time.Now()
	defer func() { st.Phases.Stats = time.Since(tStats) }()
	if plan == PlanConventional || len(x.a.context) == 0 {
		st.Plan = PlanConventional
		// Whole-collection statistics are O(#keywords) reads of precomputed
		// aggregates — cheap enough to answer exactly even after a deadline
		// expired (the scoring phase is where a dead deadline degrades).
		// Explicit cancellation still fails the call.
		if cerr := ctx.Err(); cerr != nil && !errors.Is(cerr, context.DeadlineExceeded) {
			return cs, cerr
		}
		return e.globalStats(x.a), nil
	}
	st.Plan = PlanStraightforward
	useViews := plan != PlanStraightforward
	// One catalog load per query: every view match of this execution
	// uses this snapshot, so a concurrent SwapCatalog can
	// never mix statistics from two catalog states.
	cat := e.catalog.Load()
	reason := "deadline expired before statistics"
	if err = ctx.Err(); err == nil {
		statsCtx, statsCancel := ctx, context.CancelFunc(func() {})
		if e.statsBudget > 0 {
			statsCtx, statsCancel = context.WithTimeout(ctx, e.statsBudget)
		}
		cs, err = e.contextStats(statsCtx, x, useViews, cat)
		statsCancel()
		reason = "deadline exceeded during statistics"
	}
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			return ranking.CollectionStats{}, err
		}
		if ctx.Err() == nil {
			reason = "stats budget exceeded"
		}
		cs = e.approximateStats(x.a, useViews, st, cat)
		st.Degrade(reason + ": approximate statistics")
	}
	st.ContextSize = cs.N
	return cs, nil
}

// scorePhase ranks the query's result set on this engine's documents
// under cs with the scoring walk (prunedSearch). A deadline that expired
// before the walk degrades to an empty flagged result, one expiring
// mid-walk to a flagged partial top-k; cancellations and panics fail the
// query. cs is only read.
func (e *Engine) scorePhase(ctx context.Context, x *exec, cs ranking.CollectionStats, k int) ([]Result, error) {
	st := x.st
	if err := ctx.Err(); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		st.Degrade("deadline expired before evaluation: empty result")
		return []Result{}, nil
	}
	tScore := time.Now()
	out, err := e.prunedSearch(ctx, x.a, x.kw, x.scorePreds(), cs, k, st)
	st.Phases.Score = time.Since(tScore)
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		st.Degrade("deadline exceeded during scoring: partial top-k")
	}
	return out, nil
}
