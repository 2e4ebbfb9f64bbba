package core

import (
	"context"
	"errors"
	"math"
	"sort"

	"csrank/internal/postings"
	"csrank/internal/ranking"
)

// The scoring walk, the one evaluator of the result set: it walks the
// conjunction with bound-aware cursors and scores the members it visits
// into a top-k heap, never materializing the result set. Without
// pruning it never compares against τ and charges exactly what
// postings.Intersect charges. With pruning (block-max dynamic pruning)
// it maintains the running top-k threshold τ (the k-th best score seen
// so far) and skips work at two granularities, both strictly safe:
//
//   - container level: each keyword list carries per-2^16-chunk
//     (MaxTF, MinDocLen) metadata (postings.ChunkBound). Summing every
//     keyword's per-container score ceiling bounds any document the
//     aligned container range can hold; when that sum is < τ the whole
//     range is skipped without touching a posting.
//   - document level: when the driver (shortest) list is a keyword, a
//     staged check runs first — the driver's summand bound at its actual
//     tf plus the other keywords' container ceilings — skipping hopeless
//     candidates before any other cursor is probed. For candidates that
//     survive and match the conjunction, per-term bounds are accumulated
//     at the document's actual term frequencies in descending
//     list-ceiling order (the MaxScore ordering: with conjunctive
//     semantics every list is "essential" for candidate generation, so
//     the essential/non-essential split degenerates to this
//     bound-evaluation order plus the suffix bound below). After each
//     term the remaining terms are bounded by the suffix sum of their
//     container ceilings; once the partial sum plus suffix drops below τ
//     the document is skipped before its score — and its log-heavy
//     per-term math — is computed.
//
// Safety argument (bit-identical top-k): τ is only read from a heap
// holding ≥ k results, so at any moment at least k already-scored
// documents score ≥ τ, hence the final k-th best score ≥ τ. Skipping
// requires UpperBound < τ strictly, and ScoreIndexed ≤ UpperBound
// (the ranking.Scorer contract), so every skipped document scores
// strictly below the final k-th best — it cannot appear in the top k
// even under the DocID tie-break, which only arbitrates equal scores.
// Documents that are scored produce exactly the floats of the walk
// that never prunes: term frequencies come from the same lists in the
// same canonical order, and ScoreIndexed runs with the same statistics.
//
// That contract holds in exact arithmetic, but the two sides are
// computed by different floating-point expressions (different
// association, different summation order), so the computed bound can
// land a few ulps BELOW the computed score. That matters precisely at
// ties: when a document's score equals τ bit-for-bit (e.g. an identical
// twin scored earlier already raised τ to it), a bound one ulp
// under τ would wrongly skip it and break the DocID tie-break. Every
// skip comparison therefore inflates the bound by boundFPMargin times
// the sum of the summands' magnitudes — ~100× the worst-case
// accumulated rounding drift of these expressions (tens of ops, each
// within 2⁻⁵³ relative), yet far below any score gap a differing (tf,
// len) can produce, so pruning power is unaffected.
//
// Ordering constraint: bounds are functions of the CollectionStats the
// query ranks with. Under context-sensitive evaluation that is S_c(D_P),
// so the walk runs strictly after the statistics phase (see
// ranking/bounds.go).

// PruningStats counts what dynamic pruning did during one execution.
// All zero when the walk never compared against τ.
type PruningStats struct {
	// ContainersSkipped counts aligned container ranges dismissed
	// wholesale by the summed per-container ceilings.
	ContainersSkipped int64
	// ContainersSkippedUndecoded counts, among the cursors party to those
	// wholesale dismissals, the containers whose on-disk block was never
	// decompressed: the bound came from the block directory alone, so
	// skipping cost zero payload I/O.
	ContainersSkippedUndecoded int64
	// DocsSkipped counts candidate documents dismissed by a
	// document-level bound without being scored. When the driver list is
	// a keyword, its bound is checked before the conjunction probe, so
	// some skipped candidates may lie outside the conjunction entirely.
	DocsSkipped int64
	// BoundChecks counts document-level bound evaluations (each may or
	// may not lead to a skip); the ratio DocsSkipped/BoundChecks is the
	// pruning hit rate.
	BoundChecks int64
}

// add merges another execution's counters.
func (p *PruningStats) add(o PruningStats) {
	p.ContainersSkipped += o.ContainersSkipped
	p.ContainersSkippedUndecoded += o.ContainersSkippedUndecoded
	p.DocsSkipped += o.DocsSkipped
	p.BoundChecks += o.BoundChecks
}

// boundFPMargin scales the magnitude-proportional inflation applied to
// every pruning bound before it is compared against τ (see the package
// comment's safety argument): skip only when bound + boundFPMargin·Σ|summand|
// < τ. Worst-case floating-point drift between the bound and score
// expressions is ~10⁻¹⁴ relative to the summand magnitudes; 10⁻¹² keeps
// two orders of magnitude of headroom.
const boundFPMargin = 1e-12

// scoreCheckMask throttles ctx polling in the walk: one Err() call per
// mask+1 candidate probes keeps the hot loop branch-cheap.
const scoreCheckMask = 1023

// memoCap bounds the per-term tf → UpperBound memo table: term
// frequencies at or below it hit the table, rarer larger ones compute
// directly. Tables reset at container granularity (MinDocLen changes).
const memoCap = 256

// prunedQuery is the walk's per-query immutable state.
type prunedQuery struct {
	qs     ranking.QueryStats
	cs     ranking.CollectionStats
	scorer ranking.Scorer
	// all holds the keyword lists (first nk entries, aligned with
	// a.kwTerms so cursor TFs fill the canonical tf slice) followed by
	// the predicate lists.
	all []*postings.List
	nk  int
	// termQ/termC are single-slot projections of qs/cs, sharing their
	// storage: UpperBound over termQ[i] yields keyword i's summand
	// ceiling, and the full bound is the sum of the per-term ceilings
	// (the ranking.Scorer contract).
	termQ []ranking.QueryStats
	termC []ranking.CollectionStats
	// order lists keyword indices by descending list-level ceiling —
	// the MaxScore evaluation order for the document-level suffix bound.
	order []int
	// seekOrder lists the non-driver cursor indices (into all) by
	// ascending list length, the cheapest probing order; driver is the
	// shortest list's index.
	seekOrder []int
	driver    int
	// prune is whether the walk compares against τ: pruning on, a real
	// top-k (k > 0) and bound metadata on every keyword list. tfLess
	// marks a conjunction of two or more lists without TFs.
	prune, tfLess bool
}

// termUpperBound evaluates keyword i's summand ceiling, routing through
// the int32 UpperBound surface. A term frequency beyond int32 cannot be
// represented there, so it disables pruning for the container (+Inf)
// rather than risk an under-estimate.
func (pq *prunedQuery) termUpperBound(i int, maxTF uint32, minLen int32) float64 {
	if maxTF > math.MaxInt32 {
		return math.Inf(1)
	}
	return pq.scorer.UpperBound(pq.termQ[i], int32(maxTF), minLen, pq.termC[i])
}

// newPrunedQuery assembles the walk's per-query state, or returns nil
// when a list is nil or empty: the conjunction is empty.
func (e *Engine) newPrunedQuery(a analyzed, kw, preds []*postings.List, cs ranking.CollectionStats, k int) *prunedQuery {
	all := append(append(make([]*postings.List, 0, len(kw)+len(preds)), kw...), preds...)
	driver, tfLess := 0, len(all) > 1
	for i, l := range all {
		if l == nil || l.Len() == 0 {
			return nil
		}
		if l.Len() < all[driver].Len() {
			driver = i
		}
		tfLess = tfLess && !l.HasTFs()
	}
	nk := len(kw)
	pq := &prunedQuery{
		qs:     ranking.NewQueryStats(a.kwStream),
		cs:     cs,
		scorer: e.scorer,
		all:    all,
		nk:     nk,
		termQ:  make([]ranking.QueryStats, nk),
		termC:  make([]ranking.CollectionStats, nk),
		order:  make([]int, nk),
		driver: driver,
		prune:  e.pruning && k > 0,
		tfLess: tfLess,
	}
	// a.kwTerms is distinct first-occurrence order — the canonical
	// summation order ScoreIndexed uses.
	pq.cs.IndexTerms(a.kwTerms)
	listUB := make([]float64, nk)
	for i := range kw {
		pq.termQ[i] = ranking.QueryStats{TQs: pq.qs.TQs[i : i+1]}
		pq.termC[i] = ranking.CollectionStats{N: cs.N, TotalLen: cs.TotalLen,
			Terms: pq.cs.Terms[i : i+1], DFs: pq.cs.DFs[i : i+1], TCs: pq.cs.TCs[i : i+1]}
		listUB[i] = pq.termUpperBound(i, kw[i].MaxTF(), kw[i].MinDocLen())
		pq.order[i] = i
		pq.prune = pq.prune && kw[i].HasBounds()
	}
	sort.SliceStable(pq.order, func(x, y int) bool {
		return listUB[pq.order[x]] > listUB[pq.order[y]]
	})
	for i := range pq.all {
		if i != pq.driver {
			pq.seekOrder = append(pq.seekOrder, i)
		}
	}
	sort.SliceStable(pq.seekOrder, func(x, y int) bool {
		return pq.all[pq.seekOrder[x]].Len() < pq.all[pq.seekOrder[y]].Len()
	})
	return pq
}

// prunedWorker is the walk's mutable scoring state.
type prunedWorker struct {
	e       *Engine
	pq      *prunedQuery
	curs    []*postings.BoundCursor
	top     *topK
	pst     *PruningStats
	scratch *scoreScratch
	matched int

	// Per-container scratch: cUB[i] is keyword i's ceiling over the
	// aligned container range, suffix[j] the sum of cUB over
	// order[j:] with suffixAbs[j] its magnitude counterpart (Σ|cUB|,
	// feeding the FP-drift margin), memo[i] the tf → bound table, eff
	// the range's effective MinDocLen (max over the keyword containers).
	// othersUB/othersAbs bound every keyword except the driver — the
	// staged pre-probe check (see run) uses them when the driver is a
	// keyword list.
	// scratch.stagedUB[tf] is the staged check's fully margin-inflated
	// left-hand side for a driver posting with term frequency tf in this
	// container (filled eagerly up to the container's MaxTF, capped at
	// memoCap; pooled, so it grows once rather than per query).
	// mask is its projection at threshold maskTau — bit tf set iff
	// stagedUB[tf] survives — handed to the cursor so runs of hopeless
	// driver postings are dismissed at tf-array scan speed
	// (postings.SkipNonSurvivors); it is rebuilt lazily whenever the
	// cached τ moves (maskTau is NaN-poisoned at container entry).
	cUB       []float64
	suffix    []float64
	suffixAbs []float64
	othersUB  float64
	othersAbs float64
	mask      postings.TFMask
	maskTau   float64
	memo      [][]float64
	eff       int32
}

// enterContainer computes the aligned container range's bounds and
// resets the memo tables. Every keyword cursor sits in the container
// based at base. The container's margin-inflated ceiling is
// suffix[0] + boundFPMargin·suffixAbs[0] afterwards.
func (w *prunedWorker) enterContainer() {
	pq := w.pq
	w.eff = math.MinInt32
	for i := 0; i < pq.nk; i++ {
		if b, ok := w.curs[i].ContainerBound(); ok && b.MinDocLen > w.eff {
			w.eff = b.MinDocLen
		}
	}
	for i := 0; i < pq.nk; i++ {
		b, _ := w.curs[i].ContainerBound()
		w.cUB[i] = pq.termUpperBound(i, b.MaxTF, w.eff)
	}
	w.suffix[pq.nk] = 0
	w.suffixAbs[pq.nk] = 0
	for j := pq.nk - 1; j >= 0; j-- {
		w.suffix[j] = w.suffix[j+1] + w.cUB[pq.order[j]]
		w.suffixAbs[j] = w.suffixAbs[j+1] + math.Abs(w.cUB[pq.order[j]])
	}
	w.othersUB, w.othersAbs = 0, 0
	staged := w.scratch.stagedUB[:0]
	if pq.driver < pq.nk {
		for i := 0; i < pq.nk; i++ {
			if i != pq.driver {
				w.othersUB += w.cUB[i]
				w.othersAbs += math.Abs(w.cUB[i])
			}
		}
		if b, ok := w.curs[pq.driver].ContainerBound(); ok {
			n := b.MaxTF
			if n > memoCap {
				n = memoCap
			}
			for tf := uint32(0); tf <= n; tf++ {
				tb := pq.termUpperBound(pq.driver, tf, w.eff)
				staged = append(staged, tb+w.othersUB+boundFPMargin*(math.Abs(tb)+w.othersAbs))
			}
		}
	}
	w.scratch.stagedUB = staged
	w.maskTau = math.NaN()
	for i := range w.memo {
		w.memo[i] = w.memo[i][:0]
	}
}

// rebuildMask projects stagedUB at threshold tau into the tf survivor
// mask. Frequencies beyond stagedUB's range are implicit survivors
// (TFMask treats tf ≥ 256 as set; a container never holds a tf above
// its own MaxTF, which stagedUB covers up to the memo cap).
func (w *prunedWorker) rebuildMask(tau float64) {
	w.mask.Clear()
	for tf, ub := range w.scratch.stagedUB {
		if !(ub < tau) {
			w.mask.Set(uint32(tf))
		}
	}
	w.maskTau = tau
}

// termBound returns keyword i's summand ceiling at its actual term
// frequency in the current container, memoized per (container, tf).
func (w *prunedWorker) termBound(i int, tf uint32) float64 {
	if tf > memoCap {
		return w.pq.termUpperBound(i, tf, w.eff)
	}
	m := w.memo[i]
	for len(m) <= int(tf) {
		m = append(m, math.NaN())
	}
	if v := m[tf]; !math.IsNaN(v) {
		w.memo[i] = m
		return v
	}
	v := w.pq.termUpperBound(i, tf, w.eff)
	m[tf] = v
	w.memo[i] = m
	return v
}

// run scores the conjunction. Results accumulate into w.top; matched
// counts the conjunction members visited. ctx is polled at container
// alignment and every scoreCheckMask+1 candidate probes.
func (w *prunedWorker) run(ctx context.Context) error {
	pq := w.pq
	driver := w.curs[pq.driver]
	tf := w.scratch.tf
	probes := 0
	// tau caches the skip threshold, the heap floor, once haveTau (k
	// results exist and the walk prunes). Only a push moves the floor, so
	// it is re-read there and nowhere per candidate. Bound-check counters
	// accumulate in locals for the same reason and flush on return.
	tau, haveTau := 0.0, false
	var checks, skips int64
	defer func() {
		w.pst.BoundChecks += checks
		w.pst.DocsSkipped += skips
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Without pruning the whole docID space is one range and no
		// container is aligned or bounded: the cursors move exactly as
		// postings.Intersect's conjunction moves them.
		rangeEnd := uint64(math.MaxUint32) + 1
		if pq.prune {
			// Align every cursor into one container range. Seeks can
			// overshoot into later containers, so iterate to a fixed point;
			// positions only move forward, so this terminates.
			var base uint32
			for {
				base = 0
				for _, c := range w.curs {
					if c.Exhausted() {
						return nil
					}
					if b := c.ContainerBase(); b > base {
						base = b
					}
				}
				moved := false
				for _, c := range w.curs {
					if c.ContainerBase() < base {
						if !c.NextAtLeast(base) {
							return nil
						}
						moved = true
					}
				}
				if !moved {
					break
				}
			}
			rangeEnd = uint64(base) + postings.ContainerSpan

			w.enterContainer()
			if haveTau && w.suffix[0]+boundFPMargin*w.suffixAbs[0] < tau {
				// No document in this container range can enter the top k:
				// jump every cursor past it.
				w.pst.ContainersSkipped++
				alive := true
				for _, c := range w.curs {
					if !c.ContainerResident() {
						// Mapped block dismissed straight off its directory
						// entry — never decompressed.
						w.pst.ContainersSkippedUndecoded++
					}
					if !c.SkipContainer() {
						alive = false
					}
				}
				if !alive {
					return nil
				}
				continue
			}
		}

		// Conjunction scan within [base, rangeEnd). staged: when the
		// driver is itself a keyword list its tf alone (plus the other
		// keywords' container ceilings, folded into stagedUB) bounds the
		// document before any other cursor moves, so runs of hopeless
		// candidates are dismissed by the tf survivor mask at tf-array
		// scan speed — no conjunction probe, no per-posting cursor step.
		// The ContainerBase conjunct is redundant logically (base ≤ DocID
		// always) but decisive physically: when the driver has moved on to
		// a later container whose mapped block is still pending, the base
		// alone proves the range is done — asking DocID would decompress
		// the block this loop exists to avoid touching.
		staged := pq.driver < pq.nk
		for !driver.Exhausted() && uint64(driver.ContainerBase()) < rangeEnd && uint64(driver.DocID()) < rangeEnd {
			probes++
			if probes&scoreCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if staged && haveTau {
				if tau != w.maskTau {
					w.rebuildMask(tau)
				}
				if n := driver.SkipNonSurvivors(&w.mask); n > 0 {
					checks += int64(n)
					skips += int64(n)
					continue
				}
			}
			d := driver.DocID()
			if driver.Exhausted() {
				// DocID resolution ran off a quarantined tail.
				return nil
			}
			match := true
			for _, i := range pq.seekOrder {
				c := w.curs[i]
				if !c.NextAtLeast(d) {
					return nil
				}
				got := c.DocID()
				if c.Exhausted() {
					return nil
				}
				if got != d {
					if !driver.NextAtLeast(got) {
						return nil
					}
					match = false
					break
				}
			}
			if !match {
				continue
			}
			w.matched++
			// The full ordered bound over actual tfs is strictly tighter
			// than the staged check whenever more than one keyword
			// contributes; for a single keyword the staged check was
			// already exact, so repeating it cannot skip anything new.
			if (pq.nk > 1 || !staged) && haveTau {
				checks++
				acc, accAbs := 0.0, 0.0
				skip := false
				for j, i := range pq.order {
					tb := w.termBound(i, w.curs[i].TF())
					acc += tb
					accAbs += math.Abs(tb)
					if acc+w.suffix[j+1]+boundFPMargin*(accAbs+w.suffixAbs[j+1]) < tau {
						skip = true
						break
					}
				}
				if skip {
					skips++
					driver.Next()
					continue
				}
			}
			for i := 0; i < pq.nk; i++ {
				tf[i] = int64(w.curs[i].TF())
			}
			w.score(d)
			if pq.prune && w.top.full() {
				tau = w.top.floor()
				haveTau = true
			}
			driver.Next()
		}
		// The driver left the range: the outer loop's container-skip check
		// gets a chance to dismiss a pending next block off its directory
		// bounds before anything asks for a DocID.
		if driver.Exhausted() {
			return nil
		}
	}
}

// score pushes conjunction member d, its keyword tfs already in
// scratch.tf, into the top k.
func (w *prunedWorker) score(d uint32) {
	ds := ranking.DocStats{TFs: w.scratch.tf, Len: int64(w.e.docLens[d])}
	w.top.push(Result{DocID: d, Score: w.pq.scorer.ScoreIndexed(w.pq.qs, ds, w.pq.cs)})
}

// prunedSearch is the scoring walk over the conjunction of the keyword
// and predicate lists: the top k (every member if k ≤ 0) by descending
// score then ascending DocID. st receives the list cost, one
// intersection for two or more lists, the pruning counters and
// ResultSize. On deadline expiry the partial top-k is returned with
// context.DeadlineExceeded; a cancellation returns nil and the error.
func (e *Engine) prunedSearch(ctx context.Context, a analyzed, kw, preds []*postings.List, cs ranking.CollectionStats, k int, st *ExecStats) ([]Result, error) {
	pq := e.newPrunedQuery(a, kw, preds, cs, k)
	if pq == nil {
		return []Result{}, nil
	}
	if len(pq.all) > 1 {
		st.Intersections++
	}
	scratch := getScratch(pq.nk)
	defer putScratch(scratch)
	top := newTopK(k)
	defer top.release()
	w := &prunedWorker{
		e:         e,
		pq:        pq,
		curs:      make([]*postings.BoundCursor, len(pq.all)),
		top:       top,
		pst:       &st.Pruning,
		scratch:   scratch,
		cUB:       make([]float64, pq.nk),
		suffix:    make([]float64, pq.nk+1),
		suffixAbs: make([]float64, pq.nk+1),
		memo:      make([][]float64, pq.nk),
	}
	var err error
	if pq.tfLess && !pq.prune {
		// tf = 1 throughout and nothing to prune: the count kernel
		// enumerates the conjunction, charging what Intersect charges.
		for i := range scratch.tf {
			scratch.tf[i] = 1
		}
		err = postings.VisitConjunction(ctx, pq.all, &st.Stats, func(d uint32) {
			w.matched++
			w.score(d)
		})
	} else {
		for i, l := range pq.all {
			w.curs[i] = postings.NewBoundCursor(l, &st.Stats)
		}
		err = w.run(ctx)
	}
	st.ResultSize = w.matched
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	return top.results(), err
}
