package postings

import (
	"context"
	"math"
	"math/bits"
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

// Len returns the number of matching documents (the join cardinality).
func (r *Intersection) Len() int { return len(r.DocIDs) }

// ToList converts the intersection result into a List with TF = 1, suitable
// for feeding into further intersections (intermediate results of a
// multi-way plan). Segment size follows DefaultSegmentSize.
func (r *Intersection) ToList() *List {
	return FromDocIDs(r.DocIDs, 0)
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
// length so mismatches are discovered as cheaply as possible. Cost
// counters accumulate into st (which may be nil).
//
// The result's TFs are ordered like the *input* lists, not the internal
// evaluation order.
func Intersect(lists []*List, st *Stats) *Intersection {
	res, _ := IntersectCtx(context.Background(), lists, st)
	return res
}

// IntersectCtx is Intersect with cooperative cancellation: the
// conjunction polls ctx at chunk-range (dense kernel) or checkStride
// (cursor kernel) granularity. On cancellation it returns the matches
// accumulated so far — a valid prefix of the full result, usable for
// degraded partial answers — together with ctx's error.
func IntersectCtx(ctx context.Context, lists []*List, st *Stats) (*Intersection, error) {
	cc := newCanceler(ctx)
	res := &Intersection{TFs: make([][]uint32, len(lists))}
	if len(lists) == 0 {
		return res, nil
	}
	for _, l := range lists {
		if l == nil || l.Len() == 0 {
			// A nil list stands for a term absent from the index: the
			// conjunction is empty.
			return res, nil
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
		// Every list is predicate-shaped (implicit TF = 1): the count-only
		// conjunction kernel can materialize too — dense ranges go through
		// word-AND + popcount instead of cursor stepping. The TF columns
		// are a single shared all-ones slice; Intersection consumers treat
		// TFs as read-only.
		res.DocIDs = make([]uint32, 0, est/4+1)
		visitConjunction(lists, st, cc, func(d uint32) {
			res.DocIDs = append(res.DocIDs, d)
		}, nil)
		ones := make([]uint32, len(res.DocIDs))
		for i := range ones {
			ones[i] = 1
		}
		for i := range res.TFs {
			res.TFs[i] = ones
		}
		return res, cc.cause()
	}
	res.DocIDs = make([]uint32, 0, est/4+1)
	for i := range res.TFs {
		res.TFs[i] = make([]uint32, 0, est/4+1)
	}
	conjoin(lists, st, cc, func(d uint32, cursors []*cursor) {
		res.DocIDs = append(res.DocIDs, d)
		for i, c := range cursors {
			res.TFs[i] = append(res.TFs[i], c.tf())
		}
	})
	return res, cc.cause()
}

// Intersect2 is a convenience wrapper for the common pairwise case.
func Intersect2(a, b *List, st *Stats) *Intersection {
	return Intersect([]*List{a, b}, st)
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

// MergeIntersect computes the pairwise intersection by a plain two-pointer
// merge without container skipping, touching every entry of both lists. It
// exists as the baseline of the paper's cost comparison
// (cost = |L_i| + |L_j|) and for differential testing of the skip-aware
// path.
func MergeIntersect(a, b *List, st *Stats) *Intersection {
	st.addIntersection()
	res := &Intersection{TFs: make([][]uint32, 2)}
	ca, cb := newCursor(a, st), newCursor(b, st)
	for !ca.exhausted() && !cb.exhausted() {
		da, db := ca.docID(), cb.docID()
		if ca.exhausted() || cb.exhausted() {
			// docID resolution ran off a quarantined tail.
			break
		}
		switch {
		case da < db:
			ca.next()
		case da > db:
			cb.next()
		default:
			res.DocIDs = append(res.DocIDs, da)
			res.TFs[0] = append(res.TFs[0], ca.tf())
			res.TFs[1] = append(res.TFs[1], cb.tf())
			ca.next()
			cb.next()
		}
	}
	return res
}

// Union returns the DocIDs present in at least one input list, with TFs
// summed across lists, as a single k-way merge instead of the pairwise
// fold's O(k · total). The merge is container-aligned: lists partition
// docID space into the same 2^16 ranges, so each active range is
// processed once — dense chunks OR their words into a presence bitset,
// sparse chunks set individual bits, TFs accumulate in a range-local
// array, and one TrailingZeros sweep emits the range in sorted order.
// Cost is O(total + activeRanges · 1024), comparison-free. Union is not
// used by conjunctive query evaluation but completes the substrate
// (disjunctive retrieval, ancestor-closure construction, tests).
//
// TFs accumulate in 64-bit per-range slots and saturate at the posting
// format's uint32 ceiling on emission, so summing many large-TF lists
// can never wrap around to a small count.
func Union(lists []*List, st *Stats) *List {
	l, _ := UnionCtx(context.Background(), lists, st)
	return l
}

// UnionCtx is Union with cooperative cancellation at chunk-range
// granularity. On cancellation it returns the merged prefix built so far
// together with ctx's error; callers that need the complete union must
// treat a non-nil error as failure.
func UnionCtx(ctx context.Context, lists []*List, st *Stats) (*List, error) {
	switch len(lists) {
	case 0:
		return NewList(nil, 0), nil
	}
	var live []*List
	segSize, total := 0, 0
	for _, l := range lists {
		if l == nil || l.Len() == 0 {
			continue
		}
		if segSize == 0 {
			segSize = l.segSize
		}
		total += l.Len()
		live = append(live, l)
	}
	switch len(live) {
	case 0:
		return NewList(nil, segSize), nil
	case 1:
		return live[0], nil
	}
	cc := newCanceler(ctx)
	ids := make([]uint32, 0, total)
	tfs := make([]uint32, 0, total)
	// Range-local TF accumulators are 64-bit: k input lists can each
	// contribute up to MaxUint32 per document, which overflows a uint32
	// slot silently. The widened sum saturates at MaxUint32 on emission
	// (the posting format's TF width).
	acc := make([]uint64, chunkSpan)
	var pres [chunkWords]uint64
	cis := make([]int, len(live))
	consumed := 0
	for {
		if cc.halted() {
			break
		}
		// The lowest pending chunk base decides the next active range.
		base, none := uint32(0), true
		for i, l := range live {
			if cis[i] < len(l.chunks) {
				if b := l.chunks[cis[i]].base; none || b < base {
					base, none = b, false
				}
			}
		}
		if none {
			break
		}
		for i, l := range live {
			if cis[i] >= len(l.chunks) || l.chunks[cis[i]].base != base {
				continue
			}
			n := int(l.chunks[cis[i]].n)
			keys, words, tfs, quarantined := l.payloadQ(cis[i])
			if quarantined {
				st.addQuarantineSkip()
			}
			if words != nil {
				r := 0
				for w, word := range words {
					pres[w] |= word
					for word != 0 {
						lo := w<<6 + bits.TrailingZeros64(word)
						if tfs == nil {
							acc[lo]++
						} else {
							acc[lo] += uint64(tfs[r])
						}
						r++
						word &= word - 1
					}
				}
			} else {
				for j, key := range keys {
					lo := int(key)
					pres[lo>>6] |= 1 << uint(lo&63)
					if tfs == nil {
						acc[lo]++
					} else {
						acc[lo] += uint64(tfs[j])
					}
				}
			}
			consumed += n
			cis[i]++
		}
		for w := range pres {
			word := pres[w]
			if word == 0 {
				continue
			}
			pres[w] = 0
			for word != 0 {
				lo := w<<6 + bits.TrailingZeros64(word)
				ids = append(ids, base+uint32(lo))
				tf := acc[lo]
				if tf > math.MaxUint32 {
					tf = math.MaxUint32 // saturate at the TF column width
				}
				tfs = append(tfs, uint32(tf))
				acc[lo] = 0
				word &= word - 1
			}
		}
	}
	// Every input entry is consumed exactly once (all of them unless the
	// merge was cancelled mid-way).
	st.addEntries(int64(consumed))
	return newListRaw(ids, tfs, segSize, DenseThreshold), cc.cause()
}
