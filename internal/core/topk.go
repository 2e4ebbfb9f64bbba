package core

import (
	"math"
	"sort"
	"sync"
)

// topK keeps the k best results seen so far in a min-heap (the weakest
// kept result at the root), so pushing n results costs O(n log k).
// k ≤ 0 keeps everything.
type topK struct {
	k    int
	heap resultHeap
	all  []Result // used when k ≤ 0
}

// topKPool recycles topK values — and, more importantly, their heap
// backing arrays — across queries. Only the heap is reused: results()
// copies it before returning, so nothing a caller holds ever aliases
// pooled memory. The k ≤ 0 'all' slice is handed to the caller verbatim
// and therefore never pooled.
var topKPool = sync.Pool{New: func() any { return new(topK) }}

func newTopK(k int) *topK {
	t := topKPool.Get().(*topK)
	t.k = k
	t.heap = t.heap[:0]
	t.all = nil
	return t
}

// release returns t and its heap backing to the pool. Call only after
// results() (or on an error path that discards the heap).
func (t *topK) release() {
	t.all = nil
	topKPool.Put(t)
}

// full reports whether the heap holds k results.
func (t *topK) full() bool { return t.k > 0 && len(t.heap) >= t.k }

// floor is the pruning threshold τ: the weakest kept score (the heap
// root) once the heap is full, -Inf before — the root of an underfull
// heap bounds nothing.
func (t *topK) floor() float64 {
	if !t.full() {
		return math.Inf(-1)
	}
	return t.heap[0].Score
}

func (t *topK) push(r Result) {
	if t.k <= 0 {
		t.all = append(t.all, r)
		return
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, r)
		t.heap.up(len(t.heap) - 1)
		return
	}
	if worseThan(t.heap[0], r) {
		t.heap[0] = r
		t.heap.down(0)
	}
}

// results returns the collected hits by descending score (ties broken by
// ascending DocID for deterministic output).
func (t *topK) results() []Result {
	out := t.all
	if t.k > 0 {
		out = append([]Result(nil), t.heap...)
	}
	sort.Slice(out, func(i, j int) bool { return worseThan(out[j], out[i]) })
	return out
}

// MergeResults merges ranked result lists — each sorted under the
// engine's strict (score desc, DocID asc) total order, as every Search
// variant returns — into the global top k (everything when k ≤ 0). The
// merge is rank-safe when each input list is its partition's top k under
// the same order: a document a partition truncated away ranks strictly
// below k documents of that partition, hence below k documents of the
// union, so it cannot appear in the union's top k. Partitions are
// disjoint by construction (document-partitioned shards), so the k best
// of the concatenation are exactly the k best of the union, and the
// strict total order makes the output independent of list arrival
// order — bit-identical to a single-engine run over the union.
func MergeResults(k int, lists ...[]Result) []Result {
	top := newTopK(k)
	for _, l := range lists {
		for _, r := range l {
			top.push(r)
		}
	}
	out := top.results()
	top.release()
	return out
}

// worseThan reports whether a ranks strictly below b.
func worseThan(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.DocID > b.DocID
}

// resultHeap is a min-heap under worseThan (the weakest result at the
// root), sifted in place: container/heap would box every Result pushed
// into an interface value.
type resultHeap []Result

// up restores the heap order after element j was appended.
func (h resultHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !worseThan(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down restores the heap order after element i was replaced by a
// result no weaker than the one it held.
func (h resultHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && worseThan(h[r], h[j]) {
			j = r
		}
		if !worseThan(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
