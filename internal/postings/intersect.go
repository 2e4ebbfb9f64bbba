package postings

import (
	"context"
	"sort"
)

// Intersection is the result of a k-way conjunctive intersection: the
// matching document IDs plus, for every input list, the term frequencies
// aligned with DocIDs. The aligned TFs let the ranking layer compute
// tf(w, d) for each query keyword without any further index probes.
type Intersection struct {
	DocIDs []uint32
	// TFs[i][j] is the TF recorded by input list i for document DocIDs[j].
	TFs [][]uint32
}

// conjoin runs the document-at-a-time k-way conjunction with the shortest
// list driving and the rest sought in ascending length order, and calls
// onMatch for every matching docID with all cursors positioned on it. It
// is the shared engine of Intersect and the count-style kernels that need
// TFs (CountTFSum). A non-nil canceler is polled every checkStride driver
// steps; on cancellation the conjunction stops early (the caller reports
// the cause).
func conjoin(lists []*List, st *Stats, cc *canceler, onMatch func(docID uint32, cursors []*cursor)) {
	// Evaluation order: ascending by length, remembering original slots.
	order := make([]int, len(lists))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return lists[order[a]].Len() < lists[order[b]].Len()
	})

	cursors := make([]*cursor, len(lists))
	for _, idx := range order {
		cursors[idx] = newCursor(lists[idx], st)
	}

	driver := cursors[order[0]]
	for !driver.exhausted() {
		if cc.strideHalted() {
			return
		}
		candidate := driver.docID()
		if driver.exhausted() {
			// docID resolution ran off a quarantined tail: done.
			return
		}
		matched := true
		for _, idx := range order[1:] {
			c := cursors[idx]
			if !c.seek(candidate) {
				// Some list is exhausted: no further matches anywhere.
				return
			}
			got := c.docID()
			if c.exhausted() {
				return
			}
			if got != candidate {
				// Re-seek the driver to the larger DocID and restart.
				if !driver.seek(got) {
					return
				}
				matched = false
				break
			}
		}
		if matched {
			onMatch(candidate, cursors)
			driver.next()
		}
	}
}

// Intersect computes the conjunction of all input lists using the
// document-at-a-time algorithm: the shortest list drives, and every
// candidate DocID is sought in the remaining lists ordered by ascending
// length so mismatches are discovered as cheaply as possible. When every
// list is predicate-shaped (TF-less) the count-only conjunction kernel
// runs instead, with its charges (see VisitConjunction). Cost counters
// accumulate into st (which may be nil).
//
// The result's TFs are ordered like the *input* lists, not the internal
// evaluation order.
func Intersect(lists []*List, st *Stats) *Intersection {
	res := &Intersection{TFs: make([][]uint32, len(lists))}
	if len(lists) == 0 {
		return res
	}
	for _, l := range lists {
		if l == nil || l.Len() == 0 {
			// A nil list stands for a term absent from the index: the
			// conjunction is empty.
			return res
		}
	}
	if len(lists) > 1 {
		st.addIntersection()
	}
	est := lists[0].Len()
	for _, l := range lists[1:] {
		if l.Len() < est {
			est = l.Len()
		}
	}
	allTFLess := true
	for _, l := range lists {
		if l.HasTFs() {
			allTFLess = false
			break
		}
	}
	if allTFLess && len(lists) > 1 {
		// Implicit TF = 1 everywhere: the TF columns are a single shared
		// all-ones slice; Intersection consumers treat TFs as read-only.
		res.DocIDs = make([]uint32, 0, est/4+1)
		visitConjunction(lists, st, nil, func(d uint32) {
			res.DocIDs = append(res.DocIDs, d)
		}, nil)
		ones := make([]uint32, len(res.DocIDs))
		for i := range ones {
			ones[i] = 1
		}
		for i := range res.TFs {
			res.TFs[i] = ones
		}
		return res
	}
	res.DocIDs = make([]uint32, 0, est/4+1)
	for i := range res.TFs {
		res.TFs[i] = make([]uint32, 0, est/4+1)
	}
	conjoin(lists, st, nil, func(d uint32, cursors []*cursor) {
		res.DocIDs = append(res.DocIDs, d)
		for i, c := range cursors {
			res.TFs[i] = append(res.TFs[i], c.tf())
		}
	})
	return res
}

// VisitConjunction calls visit for every document of the conjunction of
// two or more non-empty lists, in ascending docID order, without
// materializing it. It runs the count-only conjunction kernel — dense
// ranges go through word-AND instead of cursor stepping — and charges
// what Intersect charges over TF-less lists, less the Intersections
// tick. ctx is polled once per 2^16-docID chunk range; on cancellation
// the walk stops and ctx's error is returned.
func VisitConjunction(ctx context.Context, lists []*List, st *Stats, visit func(docID uint32)) error {
	cc := newCanceler(ctx)
	visitConjunction(lists, st, cc, visit, nil)
	return cc.cause()
}

// IntersectionSize returns only the cardinality |∩ lists|, the quantity
// needed for df(w, D_P) and |D_P|. It runs the count-only conjunction
// kernel over the adaptive containers — a word-AND + popcount when every
// list is dense over a docID range — and never materializes the result.
func IntersectionSize(lists []*List, st *Stats) int64 {
	n, _ := IntersectionSizeCtx(context.Background(), lists, st)
	return n
}

// IntersectionSizeCtx is IntersectionSize with cooperative cancellation
// at chunk-range granularity. On cancellation it returns the partial
// count together with ctx's error.
func IntersectionSizeCtx(ctx context.Context, lists []*List, st *Stats) (int64, error) {
	if len(lists) == 0 {
		return 0, nil
	}
	if len(lists) == 1 {
		if lists[0] == nil {
			return 0, nil
		}
		return int64(lists[0].Len()), nil
	}
	for _, l := range lists {
		if l == nil || l.Len() == 0 {
			return 0, nil
		}
	}
	st.addIntersection()
	cc := newCanceler(ctx)
	n := visitConjunction(lists, st, cc, nil, nil)
	return n, cc.cause()
}
