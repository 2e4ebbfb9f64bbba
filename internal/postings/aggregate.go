package postings

import "context"

// This file implements the aggregation operators (γ in the paper's Figure 3
// plan) that compute collection-specific statistics from a context. The
// kernels (CountSum, CountTFSum) fuse the aggregation into the
// conjunction itself, so the context is never materialized — the
// count-only path of the adaptive-container layer. Both have *Ctx
// variants with cooperative cancellation; all accumulators are 64-bit,
// so TF totals cannot overflow even when every posting carries the
// maximum uint32 term frequency.

// CountSum fuses the context phase of the straightforward plan: γ_count
// and γ_sum over ∩ lists in one pass of the count-only conjunction kernel,
// returning |D_P| and Σ param(d) without materializing the intersection.
// The Stats charges mirror the materializing pipeline it replaces: one
// Intersections tick for a real conjunction and 2·count AggregatedEntries
// for the two aggregations.
func CountSum(lists []*List, param func(docID uint32) int64, st *Stats) (count, sum int64) {
	count, sum, _ = CountSumCtx(context.Background(), lists, param, st)
	return count, sum
}

// CountSumCtx is CountSum with cooperative cancellation at chunk-range
// granularity, a single list included. On cancellation the partial
// aggregates are returned with ctx's error; callers must not treat them
// as exact. count is the number of documents enumerated: a quarantined
// container reads as empty here as in every other kernel.
func CountSumCtx(ctx context.Context, lists []*List, param func(docID uint32) int64, st *Stats) (count, sum int64, err error) {
	return countSum(ctx, lists, param, st, nil)
}

// countSum is the CountSumCtx pass. A non-nil into also receives the
// documents of a real conjunction (two lists or more) — the context
// materialized as a by-product of aggregating over it.
func countSum(ctx context.Context, lists []*List, param func(docID uint32) int64, st *Stats, into *ContextSet) (count, sum int64, err error) {
	if len(lists) == 0 {
		return 0, 0, nil
	}
	for _, l := range lists {
		if l == nil || l.Len() == 0 {
			return 0, 0, nil
		}
	}
	cc := newCanceler(ctx)
	if len(lists) == 1 {
		l := lists[0]
		each := func(d, _ uint32) {
			sum += param(d)
			count++
		}
		for ci := 0; ci < len(l.chunks) && !cc.halted(); ci++ {
			if visitChunk(l, ci, each) {
				st.addQuarantineSkip()
			}
		}
		st.addEntries(count)
		st.addAggregated(2 * count)
		return count, sum, cc.cause()
	}
	st.addIntersection()
	count = visitConjunction(lists, st, cc, func(d uint32) {
		sum += param(d)
	}, into)
	st.addAggregated(2 * count)
	return count, sum, cc.cause()
}

// CountTFSum computes df(w, D_P) and tc(w, D_P): the cardinality of
// l ∩ (∩ preds) and the sum of l's term frequencies over it, without
// materializing DocID or TF slices. It runs the same cursor-driven
// document-at-a-time conjunction as Intersect (so the seek/skip/entry
// charges are identical), reading l's TF at each match. df and tc
// accumulate in int64, so even pathological TF totals (every posting at
// MaxUint32) cannot overflow.
func CountTFSum(l *List, preds []*List, st *Stats) (df, tc int64) {
	df, tc, _ = CountTFSumCtx(context.Background(), l, preds, st)
	return df, tc
}

// CountTFSumCtx is CountTFSum with cooperative cancellation every
// checkStride conjunction steps (per chunk with no predicate lists). On
// cancellation the partial aggregates are returned with ctx's error;
// callers must not treat them as exact.
func CountTFSumCtx(ctx context.Context, l *List, preds []*List, st *Stats) (df, tc int64, err error) {
	if l == nil || l.Len() == 0 {
		return 0, 0, nil
	}
	for _, c := range preds {
		if c == nil || c.Len() == 0 {
			return 0, 0, nil
		}
	}
	cc := newCanceler(ctx)
	if len(preds) == 0 {
		// Degenerate empty context: every document of l matches. Lists
		// that answer Σtf without a scan poll once; a heap TF column is
		// summed chunk by chunk.
		if l.src != nil || l.tfs == nil {
			if !cc.halted() {
				df, tc = int64(l.n), l.SumTF()
			}
		} else {
			for ci := 0; ci < len(l.chunks) && !cc.halted(); ci++ {
				for _, tf := range l.tfs[l.offsets[ci]:l.offsets[ci+1]] {
					tc += int64(tf)
				}
				df = int64(l.offsets[ci+1])
			}
		}
		st.addEntries(df)
		st.addAggregated(df)
		return df, tc, cc.cause()
	}
	st.addIntersection()
	lists := make([]*List, 0, len(preds)+1)
	lists = append(lists, l)
	lists = append(lists, preds...)
	conjoin(lists, st, cc, func(_ uint32, cursors []*cursor) {
		df++
		tc += int64(cursors[0].tf())
	})
	st.addAggregated(df)
	return df, tc, cc.cause()
}
