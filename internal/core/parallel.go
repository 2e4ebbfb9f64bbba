package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"csrank/internal/postings"
	"csrank/internal/ranking"
)

// Intra-query parallel execution. One query exposes three independent
// sources of parallelism, all bounded by Options.Parallelism:
//
//   - phase overlap: the unranked result-set intersection and the context
//     statistics computation share no data, so searchContextual runs them
//     concurrently (one goroutine each);
//   - statistics fan-out: each keyword's df/tc conjunction with the
//     predicate lists is independent, so keywordStatsBatch spreads them
//     over a worker pool (the straightforward plan's probes of its
//     materialized context are too cheap to be worth a goroutine);
//   - partitioned scoring: the scoring loop splits res.DocIDs into
//     contiguous chunks, scores each into a private top-k heap and merges.
//
// Every parallel path produces bit-identical output to the sequential
// one: per-document scores are pure functions of per-document statistics,
// df/tc values are exact regardless of computation order, cost counters
// accumulate into goroutine-private postings.Stats and merge with Add
// (commutative sums), and top-k selection under the strict total order
// worseThan does not depend on arrival order.
//
// Every worker is panic-isolated: a recover at the goroutine boundary
// converts the panic into an error (with the captured stack) in the
// worker's private error slot, a shared failure flag stops siblings from
// claiming further work, and the query — only that query — fails.
// Cancellation is cooperative: workers poll ctx between work items (the
// postings kernels poll inside items, scoring polls every scoreCheckMask+1
// documents).

// resolveWorkers maps Options.Parallelism to a worker count: 0 means
// GOMAXPROCS, anything below 1 is clamped to sequential.
func resolveWorkers(p int) int {
	if p == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		return 1
	}
	return p
}

// minScoreChunk is the smallest per-chunk document count worth a
// goroutine; below it the spawn overhead dwarfs the scoring work.
const minScoreChunk = 256

// scoreCheckMask throttles ctx polling in the scoring loop: one Err()
// call per mask+1 documents keeps the hot loop branch-cheap.
const scoreCheckMask = 1023

// scoreChunks picks how many contiguous partitions to score n documents
// in, given w available workers.
func scoreChunks(n, w int) int {
	if w <= 1 || n < 2*minScoreChunk {
		return 1
	}
	chunks := (n + minScoreChunk - 1) / minScoreChunk
	if chunks > w {
		chunks = w
	}
	return chunks
}

// testHookKeywordStats, when non-nil, runs before each keyword-stats work
// item with the keyword's position; tests use it to inject worker panics.
// Set it only while no queries are in flight.
var testHookKeywordStats func(i int)

// keywordStatsBatch computes df(w, D_P) and tc(w, D_P) for the keywords
// at positions idxs (indices into kw and a.kwTerms) by conjunction with
// preds — the keywords a view does not track or a cached entry lacks —
// fanning the independent intersections out over the engine's worker
// pool when it pays. Results are emitted in idxs order on the calling
// goroutine; list cost from all workers accumulates into st. On error
// (cancellation, deadline, worker panic) nothing more is emitted and the
// first error in worker order is returned.
func (e *Engine) keywordStatsBatch(ctx context.Context, idxs []int, kw, preds []*postings.List, st *postings.Stats, emit func(i int, df, tc int64)) error {
	w := e.workers
	if w > len(idxs) {
		w = len(idxs)
	}
	if w <= 1 {
		for _, i := range idxs {
			if hook := testHookKeywordStats; hook != nil {
				hook(i)
			}
			df, tc, err := e.keywordContextStats(ctx, kw[i], preds, st)
			if err != nil {
				return err
			}
			emit(i, df, tc)
		}
		return nil
	}
	dfs := make([]int64, len(idxs))
	tcs := make([]int64, len(idxs))
	stats := make([]postings.Stats, w)
	errs := make([]error, w)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = e.keywordStatsWorker(ctx, &next, &failed, idxs, kw, preds, &stats[g], dfs, tcs)
		}(g)
	}
	// The calling goroutine is worker 0.
	errs[0] = e.keywordStatsWorker(ctx, &next, &failed, idxs, kw, preds, &stats[0], dfs, tcs)
	wg.Wait()
	if st != nil {
		for g := range stats {
			st.Add(stats[g])
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for j, i := range idxs {
		emit(i, dfs[j], tcs[j])
	}
	return nil
}

// keywordStatsWorker drains the shared work queue: each claimed slot j
// is one keyword intersection, written to dfs[j]/tcs[j] without locks.
// A recovered panic or an error trips the shared failure flag so sibling
// workers stop claiming slots promptly.
func (e *Engine) keywordStatsWorker(ctx context.Context, next *atomic.Int64, failed *atomic.Bool, idxs []int, kw, preds []*postings.List, st *postings.Stats, dfs, tcs []int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			failed.Store(true)
			err = panicError("keyword-statistics worker", r)
		}
	}()
	for !failed.Load() {
		j := int(next.Add(1)) - 1
		if j >= len(idxs) {
			return nil
		}
		if hook := testHookKeywordStats; hook != nil {
			hook(idxs[j])
		}
		var cerr error
		dfs[j], tcs[j], cerr = e.keywordContextStats(ctx, kw[idxs[j]], preds, st)
		if cerr != nil {
			failed.Store(true)
			return cerr
		}
	}
	return nil
}

// score ranks the unranked result under the given collection statistics
// and returns the top k (all results if k ≤ 0), ordered by descending
// score then ascending DocID. When the scorer supports the term-indexed
// fast path the per-document loop performs zero map operations and zero
// allocations; when the engine allows parallelism and the result is
// large enough, contiguous partitions are scored concurrently. On
// deadline expiry the merged heaps form a valid partial top-k (over the
// documents scored before the cutoff), returned with the deadline error;
// a cancellation or worker panic returns nil results with the error.
func (e *Engine) score(ctx context.Context, a analyzed, res *postings.Intersection, cs ranking.CollectionStats, k int) ([]Result, error) {
	qs := ranking.NewQueryStats(a.kwStream)
	indexed, _ := e.scorer.(ranking.IndexedScorer)
	if indexed != nil {
		// a.kwTerms is the distinct keywords in first-occurrence order —
		// the same order qs.DistinctTerms() iterates — so the slice loop
		// sums in the map loop's exact floating-point order.
		cs.IndexTerms(a.kwTerms)
	}
	n := res.Len()
	chunks := scoreChunks(n, e.workers)
	if chunks <= 1 {
		top := newTopK(k)
		err := e.scoreRange(ctx, qs, a.kwTerms, res, cs, indexed, 0, n, top)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			top.release()
			return nil, err
		}
		out := top.results()
		top.release()
		return out, err
	}
	tops := make([]*topK, chunks)
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		lo := c * n / chunks
		hi := (c + 1) * n / chunks
		tops[c] = newTopK(k)
		if c == chunks-1 {
			// The calling goroutine scores the last chunk itself.
			errs[c] = e.guardedScoreRange(ctx, qs, a.kwTerms, res, cs, indexed, lo, hi, tops[c])
			continue
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			errs[c] = e.guardedScoreRange(ctx, qs, a.kwTerms, res, cs, indexed, lo, hi, tops[c])
		}(c, lo, hi)
	}
	wg.Wait()
	// A deadline expiry in any chunk still yields a valid partial top-k
	// from the documents all chunks managed to score; a cancellation or
	// panic fails the query.
	var deadlineErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.DeadlineExceeded) {
			deadlineErr = err
			continue
		}
		for _, t := range tops {
			t.release()
		}
		return nil, err
	}
	final := tops[0]
	for _, t := range tops[1:] {
		final.merge(t)
	}
	out := final.results()
	for _, t := range tops {
		t.release()
	}
	return out, deadlineErr
}

// guardedScoreRange is scoreRange behind a panic guard, for use as a
// scoring worker body.
func (e *Engine) guardedScoreRange(ctx context.Context, qs ranking.QueryStats, terms []string, res *postings.Intersection, cs ranking.CollectionStats, indexed ranking.IndexedScorer, lo, hi int, top *topK) (err error) {
	defer recoverToError(&err, "scoring worker")
	return e.scoreRange(ctx, qs, terms, res, cs, indexed, lo, hi, top)
}

// scoreRange scores documents [lo, hi) of res into top. One pooled TF
// buffer (slice or map, depending on the scorer's capabilities) is
// reused for the whole range. ctx is polled every scoreCheckMask+1
// documents; on expiry the heap keeps what was scored so far and ctx's
// error is returned.
func (e *Engine) scoreRange(ctx context.Context, qs ranking.QueryStats, terms []string, res *postings.Intersection, cs ranking.CollectionStats, indexed ranking.IndexedScorer, lo, hi int, top *topK) error {
	s := getScratch(len(terms))
	defer putScratch(s)
	if indexed != nil {
		tf := s.tf
		for i := lo; i < hi; i++ {
			if i&scoreCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			docID := res.DocIDs[i]
			for j := range terms {
				tf[j] = int64(res.TFs[j][i])
			}
			ds := ranking.DocStats{TFs: tf, Len: int64(e.docLens[docID])}
			top.push(Result{DocID: docID, Score: indexed.ScoreIndexed(qs, ds, cs)})
		}
		return nil
	}
	if s.tfm == nil {
		s.tfm = make(map[string]int64, len(terms))
	}
	tf := s.tfm
	for i := lo; i < hi; i++ {
		if i&scoreCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		docID := res.DocIDs[i]
		for j, w := range terms {
			tf[w] = int64(res.TFs[j][i])
		}
		ds := ranking.DocStats{TF: tf, Len: int64(e.docLens[docID])}
		top.push(Result{DocID: docID, Score: e.scorer.Score(qs, ds, cs)})
	}
	return nil
}
