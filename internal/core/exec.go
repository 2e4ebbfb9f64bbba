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
// and every entry point is a short composition of the two: the
// Search*Ctx family runs both on one engine inside one frame (run);
// StatsFor and SearchWithStats expose them separately so a
// scatter-gather can merge statistics across slices in between, and
// SearchSlicesPartial does exactly that while carrying each slice's exec
// across (statsCarried, scoreCarried), one frame per phase.

// exec is one query's per-engine execution state: the analyzed query,
// its posting lists (nil = term absent), the context set the
// straightforward plan materialized (nil until it has, and whenever a
// view or approximate statistics answered instead), and the report the
// running phase writes into. It is built
// once per query and engine by prepare and carried from the statistics
// phase into the scoring phase — by run on one engine, by
// SearchSlicesPartial across its scatter rounds — and whoever carries it
// releases it.
type exec struct {
	a         analyzed
	kw, preds []*postings.List
	set       *postings.ContextSet
	st        *ExecStats
}

// contextual reports whether the statistics phase computes S_c(D_P)
// rather than whole-collection statistics: the plan is not forced
// conventional and the query has an effective context.
func (x *exec) contextual(plan Plan) bool {
	return plan != PlanConventional && len(x.a.context) > 0
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
// per-query deadline, the final panic boundary (what names the entry
// point in the recovered error), the quarantine note and the Elapsed
// clock.
func (e *Engine) frame(ctx context.Context, what string, st *ExecStats, body func(ctx context.Context) error) (err error) {
	if e.deadline > 0 {
		// Layer the per-query Deadline onto whatever the caller's context
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

// run is the single-engine composition: one frame around prepare and
// body, which composes the phases on the exec run owns.
func (e *Engine) run(ctx context.Context, q query.Query, what string, st *ExecStats, body func(ctx context.Context, x *exec) error) error {
	return e.frame(ctx, what, st, func(ctx context.Context) error {
		x, err := e.prepare(q, st)
		if err != nil {
			return err
		}
		defer x.release()
		return body(ctx, x)
	})
}

// search is the single-engine pipeline behind the Search*Ctx family:
// statistics phase under plan ("" lets the engine choose), then the
// scoring phase under those statistics.
func (e *Engine) search(ctx context.Context, q query.Query, k int, plan Plan) (res []Result, st ExecStats, err error) {
	err = e.run(ctx, q, "search", &st, func(ctx context.Context, x *exec) (serr error) {
		var stop bool
		if stop, res, serr = shortCircuit(ctx, &st); stop {
			return serr
		}
		cs, serr := e.statsPhase(ctx, x, plan, false)
		if serr != nil {
			if !degradeOnDeadline(serr, &st, "deadline exceeded during statistics: empty result") {
				// Explicit cancellation, a panic, or an unusable view.
				return serr
			}
			// The whole-query deadline died during statistics: nothing
			// trustworthy to rank with. Degrade to an empty result.
			res = []Result{}
			return nil
		}
		res, serr = e.scorePhase(ctx, x, cs, k)
		return serr
	})
	return res, st, err
}

// statsPhase computes the collection statistics the query ranks with.
// plan selects the source: PlanConventional forces whole-collection
// aggregates, PlanStraightforward forces the §3.1 aggregation, "" picks
// conventional for a query without effective context and otherwise the
// smallest usable view, falling back to straightforward. Contextual
// statistics run under Options.StatsBudget; when only the budget
// expires the phase falls back to approximate statistics — bounded
// work, flagged result — per the hybrid philosophy.
//
// mustAnswer is StatsFor's contract: a scatter-gather merge needs an
// addend from every slice, so a dead whole-query deadline also degrades
// to approximate statistics. A full search passes false and gets the
// deadline error back — with no time left to rank, statistics are moot.
func (e *Engine) statsPhase(ctx context.Context, x *exec, plan Plan, mustAnswer bool) (cs ranking.CollectionStats, err error) {
	st := x.st
	tStats := time.Now()
	defer func() { st.Phases.Stats = time.Since(tStats) }()
	if !x.contextual(plan) {
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
		budgetOnly := ctx.Err() == nil
		if !errors.Is(err, context.DeadlineExceeded) || !(budgetOnly || mustAnswer) {
			return ranking.CollectionStats{}, err
		}
		if budgetOnly {
			reason = "stats budget exceeded"
		}
		cs = e.approximateStats(x.a, useViews, st, cat)
		st.Degrade(reason + ": approximate statistics")
	}
	st.ContextSize = cs.N
	return cs, nil
}

// scorePhase ranks the query's result set on this engine's documents
// under cs with the scoring walk (prunedSearch). A deadline expiring
// mid-walk degrades to flagged partial top-k; cancellations and panics
// fail the query. cs is only read.
func (e *Engine) scorePhase(ctx context.Context, x *exec, cs ranking.CollectionStats, k int) ([]Result, error) {
	st := x.st
	tScore := time.Now()
	out, err := e.prunedSearch(ctx, x.a, x.kw, x.scorePreds(), cs, k, st)
	st.Phases.Score = time.Since(tScore)
	if err != nil && !degradeOnDeadline(err, st, "deadline exceeded during scoring: partial top-k") {
		return nil, err
	}
	return out, nil
}
