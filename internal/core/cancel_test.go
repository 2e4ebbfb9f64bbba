package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csrank/internal/query"
	"csrank/internal/ranking"
)

// waitForGoroutines polls until the goroutine count settles back to the
// pre-test baseline (a small tolerance covers runtime helpers), failing
// with a full stack dump if goroutines leaked.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: %d > base %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExpiredDeadlineDegradesFast: with the per-query deadline already
// expired, Search must return a flagged, empty, degraded result — not an
// error — and do so promptly even on a 20k-document corpus.
func TestExpiredDeadlineDegradesFast(t *testing.T) {
	ix := bigResultCollection(t, 20000)
	e := New(ix, nil, Options{Deadline: time.Nanosecond})
	start := time.Now()
	res, st, err := e.Search(context.Background(), query.MustParse("disease | ctx_a ctx_b"), 10, "")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("expired deadline returned error %v, want degraded result", err)
	}
	if !st.Degraded || st.DegradedReason == "" {
		t.Fatalf("Degraded = %v (%q), want flagged", st.Degraded, st.DegradedReason)
	}
	if len(res) != 0 {
		t.Fatalf("got %d results before any evaluation, want 0", len(res))
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("expired deadline took %s, want < 50ms", elapsed)
	}
}

// TestPreCancelledContextFails: an explicitly cancelled ctx (as opposed
// to an expired deadline) is a hard abort and must surface as an error.
func TestPreCancelledContextFails(t *testing.T) {
	ix := bigResultCollection(t, 2000)
	e := New(ix, nil, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := e.Search(ctx, query.MustParse("disease | ctx_a"), 10, "")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != 0 {
		t.Fatalf("cancelled query returned %d results", len(res))
	}
}

// TestCancelMidSearchNoLeaks cancels deterministically from inside the
// statistics phase (via the keyword-stats test hook) and checks the
// query aborts with context.Canceled, returns promptly, and leaves no
// goroutines behind.
func TestCancelMidSearchNoLeaks(t *testing.T) {
	ix := bigResultCollection(t, 8000)
	base := runtime.NumGoroutine()
	q := query.MustParse("disease | ctx_a ctx_b")
	e := New(ix, nil, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	testHookKeywordStats = func(int) { cancel() }
	start := time.Now()
	res, _, err := e.Search(ctx, q, 10, PlanStraightforward)
	elapsed := time.Since(start)
	testHookKeywordStats = nil
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != 0 {
		t.Fatalf("cancelled query returned %d results", len(res))
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %s, not prompt", elapsed)
	}
	// The engine keeps serving after a cancelled query.
	if _, _, err := e.Search(context.Background(), q, 10, PlanStraightforward); err != nil {
		t.Fatalf("query after cancellation failed: %v", err)
	}
	waitForGoroutines(t, base)
}

// TestGenerousDeadlineKeepsRankingsBitIdentical: a deadline that never
// fires must not perturb rankings — the zero-overhead guarantee of the
// nil-canceler design only covers the no-deadline case, so the
// with-deadline path is checked against it explicitly.
func TestGenerousDeadlineKeepsRankingsBitIdentical(t *testing.T) {
	ix := bigResultCollection(t, 4000)
	ref := New(ix, nil, Options{})
	q := query.MustParse("disease organ | ctx_a")
	want, _, err := ref.Search(context.Background(), q, 25, "")
	if err != nil {
		t.Fatal(err)
	}
	e := New(ix, nil, Options{Deadline: time.Hour})
	got, st, err := e.Search(context.Background(), q, 25, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded {
		t.Fatalf("generous deadline degraded: %s", st.DegradedReason)
	}
	assertBitIdentical(t, "generous deadline", want, got)
}

// TestStatsBudgetFallsBackToApproximate: an instantly expired statistics
// budget must not fail the query — it degrades to approximate statistics
// (whole-collection, with no view to answer from) and full results. The
// whole-query deadline is untouched, so the result set and scoring are
// complete: the ranking must match the conventional baseline, which uses
// exactly those whole-collection statistics.
func TestStatsBudgetFallsBackToApproximate(t *testing.T) {
	ix := bigResultCollection(t, 4000)
	q := query.MustParse("disease | ctx_a ctx_b")
	conv, _, err := New(ix, nil, Options{}).Search(context.Background(), q, 20, PlanConventional)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ix, nil, Options{StatsBudget: time.Nanosecond})
	res, st, err := e.Search(context.Background(), q, 20, "")
	if err != nil {
		t.Fatalf("stats-budget expiry returned error %v", err)
	}
	if !st.Degraded || !strings.Contains(st.DegradedReason, "stats budget") {
		t.Fatalf("Degraded = %v (%q), want stats-budget flag", st.Degraded, st.DegradedReason)
	}
	if len(res) == 0 {
		t.Fatal("degraded query returned no results")
	}
	assertBitIdentical(t, "approx-stats ranking vs conventional", conv, res)
}

// TestStatsDeadlineScoresUnderApproximateStats pins the one deadline
// contract: Options.Deadline bounds each phase, so when it expires inside
// the statistics phase the query falls back to approximate statistics —
// whole-collection ones, with no view to answer from — and the scoring
// phase, under a deadline of its own, still ranks the full result set
// under them. The ranking is therefore the conventional baseline's, and
// the result says why.
func TestStatsDeadlineScoresUnderApproximateStats(t *testing.T) {
	ix := bigResultCollection(t, 4000)
	q := query.MustParse("disease | ctx_a ctx_b")
	conv, _, err := New(ix, nil, Options{}).Search(context.Background(), q, 20, PlanConventional)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 100 * time.Millisecond
	e := New(ix, nil, Options{Deadline: deadline})
	testHookKeywordStats = func(i int) {
		if i == 0 {
			time.Sleep(deadline + deadline/2)
		}
	}
	res, st, err := e.Search(context.Background(), q, 20, "")
	testHookKeywordStats = nil
	if err != nil {
		t.Fatalf("statistics deadline returned error %v, want degraded result", err)
	}
	if want := "deadline exceeded during statistics: approximate statistics"; !st.Degraded || st.DegradedReason != want {
		t.Fatalf("Degraded = %v (%q), want %q", st.Degraded, st.DegradedReason, want)
	}
	if st.ContextSize != int64(ix.NumDocs()) {
		t.Fatalf("ContextSize = %d, want the whole collection's %d", st.ContextSize, ix.NumDocs())
	}
	assertBitIdentical(t, "approx-stats ranking vs conventional", conv, res)
}

// TestSearchReturnsTheSliceError: Search is a one-slice scatter, and a
// lost slice fails it with the slice's own error — the recovered
// *PanicError — not the scatter's ErrTooFewSlices.
func TestSearchReturnsTheSliceError(t *testing.T) {
	ix := bigResultCollection(t, 1000)
	e := New(ix, nil, Options{})
	testHookKeywordStats = func(int) { panic("injected stats panic") }
	_, _, err := e.Search(context.Background(), query.MustParse("disease | ctx_a"), 10, "")
	testHookKeywordStats = nil
	var pe *PanicError
	if !errors.As(err, &pe) || errors.Is(err, ErrTooFewSlices) {
		t.Fatalf("err = %v, want the slice's *PanicError", err)
	}
}

// panicScorer wraps a real scorer and panics in ScoreIndexed while
// armed — the injected crash of the panic-isolation tests.
type panicScorer struct {
	inner ranking.Scorer
	armed atomic.Bool
}

func (p *panicScorer) Name() string { return "panic-" + p.inner.Name() }

func (p *panicScorer) ScoreIndexed(qs ranking.QueryStats, ds ranking.DocStats, cs ranking.CollectionStats) float64 {
	if p.armed.Load() {
		panic("injected scorer panic")
	}
	return p.inner.ScoreIndexed(qs, ds, cs)
}

func (p *panicScorer) UpperBound(qs ranking.QueryStats, maxTF, minLen int32, cs ranking.CollectionStats) float64 {
	return p.inner.UpperBound(qs, maxTF, minLen, cs)
}

// TestScoringWorkerPanicIsolated: a panic inside scoring — with or
// without pruning — fails only that query (with the panic message and no process
// crash), leaves no goroutines behind, and the same engine serves
// subsequent queries with correct results.
func TestScoringWorkerPanicIsolated(t *testing.T) {
	ix := bigResultCollection(t, 4000)
	q := query.MustParse("disease | ctx_a")
	ref := New(ix, nil, Options{})
	want, _, err := ref.Search(context.Background(), q, 15, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, pruning := range []bool{false, true} {
		t.Run(fmt.Sprintf("pruning=%v", pruning), func(t *testing.T) {
			base := runtime.NumGoroutine()
			sc := &panicScorer{inner: ranking.NewPivotedTFIDF()}
			e := New(ix, nil, Options{Scorer: sc, Pruning: pruning})
			sc.armed.Store(true)
			if _, _, err := e.Search(context.Background(), q, 15, ""); err == nil || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("err = %v, want panic-derived error", err)
			}
			sc.armed.Store(false)
			got, st, err := e.Search(context.Background(), q, 15, "")
			if err != nil {
				t.Fatalf("query after panic failed: %v", err)
			}
			if (st.Pruning.BoundChecks > 0) != pruning {
				t.Fatalf("Pruning.BoundChecks = %d with pruning %v", st.Pruning.BoundChecks, pruning)
			}
			// panicScorer delegates to the same pivoted TF-IDF formula, so
			// the ranking must match the reference engine's bit for bit.
			assertBitIdentical(t, "after panic", want, got)
			waitForGoroutines(t, base)
		})
	}
}

// TestStatsWorkerPanicIsolated: a panic inside the keyword-statistics
// computation is recovered, reported as that query's error, and the
// engine keeps serving.
func TestStatsWorkerPanicIsolated(t *testing.T) {
	ix := bigResultCollection(t, 4000)
	q := query.MustParse("disease organ | ctx_a ctx_b")
	base := runtime.NumGoroutine()
	e := New(ix, nil, Options{})
	testHookKeywordStats = func(int) { panic("injected stats panic") }
	_, _, err := e.Search(context.Background(), q, 10, PlanStraightforward)
	testHookKeywordStats = nil
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want panic-derived error", err)
	}
	if _, _, err := e.Search(context.Background(), q, 10, PlanStraightforward); err != nil {
		t.Fatalf("query after panic failed: %v", err)
	}
	waitForGoroutines(t, base)
}
