package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/ranking"
)

// Multi-slice execution. A live collection is a set of disjoint
// document slices — immutable shards plus a small mutable segment —
// that must rank as one: collection statistics are properties of the
// union, so slices cannot score independently. SearchSlicesPartial runs
// the two-phase protocol the scatter path proves bit-identical
// (StatsFor partial statistics summed by MergeCollectionStats, then
// SearchWithStats under the merged statistics, then MergeResults'
// strict total order), parameterized over an explicit slice list
// instead of a fixed cluster, so the shard fan-out and the
// mutable-segment overlay share one implementation.

// Slice is one disjoint piece of a logical collection: an engine and
// its local→global docID map. Globals must be strictly increasing
// (local order = global order — the invariant that makes per-slice
// top-k truncation rank-safe) and pairwise disjoint across the slices
// of one search; callers own those invariants.
type Slice struct {
	Eng     *Engine
	Globals []uint32
}

// SliceHit is one merged result: the slice that produced it, the
// document's docID in that slice's engine (for stored-field lookup)
// and in the logical collection (the tie-break key), and its score.
type SliceHit struct {
	Slice  int
	Local  uint32
	Global uint32
	Score  float64
}

// SliceHook is a fault-injection seam called inside a slice's isolated
// worker at the start of each phase ("stats", "score"), before the
// engine call. A hook may sleep (latency injection — it should select on
// ctx.Done so per-slice timeouts still bound it) or panic (crash and
// corruption injection); panics are recovered by the same boundary that
// isolates engine panics. Production paths leave hooks nil.
type SliceHook func(ctx context.Context, phase string)

// SliceFailure attributes the loss of one slice during a partial
// scatter-gather: which slice, a coarse failure kind for operators and
// breakers, and the underlying error.
type SliceFailure struct {
	Slice int
	// Kind is one of "corruption" (a *postings.BlockCorruptError escaped
	// the slice, through a panic or not), "panic" (any other recovered
	// panic), "timeout" (the per-slice timeout fired), or "error".
	Kind string
	Err  error
}

// Failure kinds reported by SliceFailure.Kind.
const (
	FailKindCorruption = "corruption"
	FailKindPanic      = "panic"
	FailKindTimeout    = "timeout"
	FailKindError      = "error"
)

// SliceOptions configures SearchSlicesPartial's failure policy.
type SliceOptions struct {
	// MinSlices is the fewest surviving slices for which a partial answer
	// is still acceptable; with fewer the query fails with
	// ErrTooFewSlices (fail-closed). ≤ 0 means 1: answer as long as any
	// slice survives. len(slices) means fail-fast on any loss.
	MinSlices int
	// Timeout bounds each slice's work per phase; an expired slice is
	// dropped from the query (unlike an engine-level Deadline, which
	// degrades in place). 0 disables the per-slice timeout.
	Timeout time.Duration
	// Hooks holds an optional fault-injection hook per slice (parallel to
	// the slices; shorter is allowed, missing or nil entries inject
	// nothing).
	Hooks []SliceHook
	// Plan forces every slice's statistics plan (PlanConventional or
	// PlanStraightforward); "" lets each slice choose, as SearchCtx does.
	Plan Plan
}

// ErrTooFewSlices fails a partial scatter-gather when fewer slices
// survive than SliceOptions.MinSlices allows.
var ErrTooFewSlices = errors.New("core: too few healthy slices for a partial answer")

// errSliceTimeout is the cancel cause installed by a per-slice timeout,
// distinguishing it from a caller cancellation.
var errSliceTimeout = errors.New("core: slice timed out")

// classifySliceFailure maps a slice error to its SliceFailure kind.
// Corruption is checked first: a *BlockCorruptError that escaped by
// panic unwraps through PanicError and must not be masked as a generic
// panic.
func classifySliceFailure(err error) string {
	var bce *postings.BlockCorruptError
	if errors.As(err, &bce) {
		return FailKindCorruption
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return FailKindPanic
	}
	if errors.Is(err, errSliceTimeout) {
		return FailKindTimeout
	}
	return FailKindError
}

// SearchSlicesPartial evaluates q over the union of the slices and
// returns the global top k (everything when k ≤ 0), bit-identical —
// scores, order, tie-breaks — to a single engine holding all documents,
// plus each slice's merged (stats + scoring phase) execution report. A
// deadline expiry inside any slice degrades that slice's report instead
// of failing.
//
// Slices are isolated failure domains: a slice that panics, reads a
// corrupt block, or exceeds opt.Timeout is dropped from the query —
// from both the statistics merge and the scoring phase — and the
// remaining slices answer alone, bit-identically to a search over
// exactly the surviving slices: when a slice fails *after* its
// statistics were merged, scoring is re-run for every survivor under
// the re-merged statistics, so a partial answer is never ranked under
// statistics of documents it cannot return. Failures attributes every
// lost slice; stats entries of lost slices are zero. The error is
// non-nil only when the caller's context was canceled (not expired), the
// query is bad (ErrBadQuery), fewer than opt.MinSlices slices survived
// (ErrTooFewSlices; MinSlices = len(slices) is the fail-fast policy), or
// the merge itself failed — never for an isolated slice loss within
// policy.
func SearchSlicesPartial(ctx context.Context, slices []Slice, q query.Query, k int, opt SliceOptions) ([]SliceHit, []ExecStats, []SliceFailure, error) {
	n := len(slices)
	if n == 0 {
		return nil, nil, nil, fmt.Errorf("core: search over zero slices")
	}
	minAlive := opt.MinSlices
	if minAlive < 1 {
		minAlive = 1
	}
	if minAlive > n {
		minAlive = n
	}

	hook := func(i int) SliceHook {
		if i < len(opt.Hooks) {
			return opt.Hooks[i]
		}
		return nil
	}
	// runSlice executes one slice's phase work behind the isolation
	// boundary: a per-slice timeout context (cancel cause errSliceTimeout,
	// so a timeout is distinguishable from a caller cancellation), the
	// fault-injection hook, and panic recovery. The engine treats the
	// timeout's cancellation as a hard error — exactly what drops the
	// slice — while its own Deadline option would merely degrade in
	// place.
	runSlice := func(i int, phase string, fn func(sctx context.Context, i int) error) error {
		sctx := ctx
		if opt.Timeout > 0 {
			c, cancel := context.WithCancelCause(ctx)
			timer := time.AfterFunc(opt.Timeout, func() { cancel(errSliceTimeout) })
			defer timer.Stop()
			defer cancel(nil)
			sctx = c
		}
		err := func() (err error) {
			defer recoverToError(&err, "slice "+phase+" phase")
			if h := hook(i); h != nil {
				h(sctx, phase)
			}
			return fn(sctx, i)
		}()
		if err != nil && context.Cause(sctx) == errSliceTimeout {
			err = fmt.Errorf("slice %d: %w after %v in %s phase (%v)", i, errSliceTimeout, opt.Timeout, phase, err)
		}
		return err
	}

	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	aliveCount := n
	errs := make([]error, n)
	var failures []SliceFailure
	// scatter runs one phase on every surviving slice — the lowest-numbered
	// on the caller's goroutine, the rest concurrently, each isolated —
	// then drops the slices that failed it. A caller cancellation and a
	// bad query fail the query instead, and blame no slice. A caller
	// deadline does neither: every slice has already degraded in place.
	scatter := func(phase string, fn func(sctx context.Context, i int) error) (lost bool, err error) {
		var wg sync.WaitGroup
		self := -1
		for i := range slices {
			if !alive[i] {
				continue
			}
			if self < 0 {
				self = i
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = runSlice(i, phase, fn)
			}(i)
		}
		errs[self] = runSlice(self, phase, fn)
		wg.Wait()
		if cerr := ctx.Err(); cerr != nil && !errors.Is(cerr, context.DeadlineExceeded) {
			return false, cerr
		}
		for i := range slices {
			if alive[i] && errs[i] != nil {
				if errors.Is(errs[i], ErrBadQuery) {
					return false, errs[i]
				}
				alive[i] = false
				aliveCount--
				lost = true
				failures = append(failures, SliceFailure{Slice: i, Kind: classifySliceFailure(errs[i]), Err: errs[i]})
			}
		}
		return lost, nil
	}

	// Each slice's exec — analyzed query, resolved lists and, once the
	// straightforward plan has run, the materialized context — is built in
	// the statistics scatter and carried through every scoring round, so
	// no slice analyzes the query or walks its predicate lists twice. This
	// function owns them; a lost slice's exec is simply never used again.
	execs := make([]*exec, n)
	defer func() {
		for _, x := range execs {
			x.release()
		}
	}()

	// Phase 1: partial statistics.
	partCS := make([]ranking.CollectionStats, n)
	statsSt := make([]ExecStats, n)
	if _, err := scatter("stats", func(sctx context.Context, i int) (err error) {
		execs[i], partCS[i], err = slices[i].Eng.statsCarried(sctx, q, opt.Plan, &statsSt[i])
		return err
	}); err != nil {
		return nil, nil, nil, err
	}

	// Phase 2: scoring under the survivors' merged statistics. A slice
	// lost during scoring invalidates the merge it was scored under —
	// its phase-1 statistics are folded into every survivor's ranking —
	// so the loop re-merges over the remaining survivors and re-scores
	// all of them. Each round removes at least one slice; the loop runs
	// at most n times. Per-slice phase-1 statistics stay valid addends
	// throughout (they are facts about disjoint document sets).
	results := make([][]Result, n)
	scoreSt := make([]ExecStats, n)
	for lost := true; lost; {
		if aliveCount < minAlive {
			return nil, nil, failures, fmt.Errorf("%w: %d of %d shards healthy, policy requires %d", ErrTooFewSlices, aliveCount, n, minAlive)
		}
		var aliveCS []ranking.CollectionStats
		for i := range slices {
			if alive[i] {
				aliveCS = append(aliveCS, partCS[i])
			}
		}
		cs := MergeCollectionStats(aliveCS...)
		var err error
		if lost, err = scatter("score", func(sctx context.Context, i int) (err error) {
			scoreSt[i] = ExecStats{}
			results[i], err = slices[i].Eng.scoreCarried(sctx, execs[i], k, cs, &scoreSt[i])
			return err
		}); err != nil {
			return nil, nil, nil, err
		}
	}

	// Rank-safe merge in the global docID space, over survivors only.
	lists := make([][]Result, 0, aliveCount)
	for i := range slices {
		if !alive[i] {
			continue
		}
		mapped := make([]Result, len(results[i]))
		for j, r := range results[i] {
			mapped[j] = Result{DocID: slices[i].Globals[r.DocID], Score: r.Score}
		}
		lists = append(lists, mapped)
	}
	merged := MergeResults(k, lists...)
	hits := make([]SliceHit, len(merged))
	for i, r := range merged {
		s, local, ok := locateSlice(slices, r.DocID)
		if !ok {
			return nil, nil, failures, fmt.Errorf("core: merged docID %d belongs to no slice", r.DocID)
		}
		hits[i] = SliceHit{Slice: s, Local: local, Global: r.DocID, Score: r.Score}
	}

	per := make([]ExecStats, n)
	for i := range per {
		if alive[i] {
			per[i] = MergeStats(statsSt[i], scoreSt[i])
		}
	}
	return hits, per, failures, nil
}

// locateSlice maps a global docID back to (slice, local) by binary
// search over each slice's sorted globals.
func locateSlice(slices []Slice, global uint32) (idx int, local uint32, ok bool) {
	for s, sl := range slices {
		g := sl.Globals
		j := sort.Search(len(g), func(i int) bool { return g[i] >= global })
		if j < len(g) && g[j] == global {
			return s, uint32(j), true
		}
	}
	return 0, 0, false
}
