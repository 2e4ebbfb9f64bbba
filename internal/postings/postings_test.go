package postings

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Build finalizes the list. The Builder must not be used afterwards.
func (b *Builder) Build() *List {
	l := newListRaw(b.ids, b.tfs, b.segSize, DenseThreshold)
	b.ids, b.tfs = nil, nil
	return l
}

func listFrom(ids ...uint32) *List { return fromDocIDs(ids, 4) }

// fromDocIDs builds a list with TF = 1 for every document, the shape of
// a predicate-field list. No per-posting TF storage is materialized.
func fromDocIDs(ids []uint32, segSize int) *List {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			panic("postings: fromDocIDs requires strictly ascending DocIDs")
		}
	}
	return newListRaw(ids, nil, segSize, DenseThreshold)
}

// docIDs returns the list's document IDs in ascending order.
func docIDs(l *List) []uint32 {
	ids := make([]uint32, 0, l.Len())
	l.ForEach(func(d, _ uint32) { ids = append(ids, d) })
	return ids
}

// postingsOf materializes l as a posting slice.
func postingsOf(l *List) []Posting {
	ps := make([]Posting, 0, l.Len())
	l.ForEach(func(d, tf uint32) { ps = append(ps, Posting{DocID: d, TF: tf}) })
	return ps
}

// tfs maps every document of l to its term frequency.
func tfs(l *List) map[uint32]uint32 {
	m := make(map[uint32]uint32, l.Len())
	l.ForEach(func(d, tf uint32) { m[d] = tf })
	return m
}

// randomSortedIDs returns n distinct sorted docids below max.
func randomSortedIDs(rng *rand.Rand, n int, max uint32) []uint32 {
	seen := make(map[uint32]bool, n)
	for len(seen) < n {
		seen[rng.Uint32()%max] = true
	}
	ids := make([]uint32, 0, n)
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func setIntersect(lists [][]uint32) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	count := make(map[uint32]int)
	for _, l := range lists {
		for _, id := range l {
			count[id]++
		}
	}
	var out []uint32
	for id, c := range count {
		if c == len(lists) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestNewListPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewList did not panic on unsorted postings")
		}
	}()
	NewList([]Posting{{DocID: 5}, {DocID: 3}}, 0)
}

func TestNewListPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewList did not panic on duplicate DocIDs")
		}
	}()
	NewList([]Posting{{DocID: 5}, {DocID: 5}}, 0)
}

func TestListAccessors(t *testing.T) {
	ps := []Posting{{1, 2}, {4, 1}, {9, 7}}
	l := NewList(ps, 2)
	if l.Len() != 3 {
		t.Errorf("Len = %d", l.Len())
	}
	if l.SumTF() != 10 || !l.HasTFs() {
		t.Errorf("SumTF = %d, HasTFs = %v", l.SumTF(), l.HasTFs())
	}
	if got := postingsOf(l); !reflect.DeepEqual(got, ps) {
		t.Errorf("Postings = %v", got)
	}
}

func TestEmptyList(t *testing.T) {
	l := NewList(nil, 0)
	if l.Len() != 0 || len(postingsOf(l)) != 0 {
		t.Error("empty list accessors wrong")
	}
	r := Intersect([]*List{l, listFrom(1, 2)}, nil)
	if len(r.DocIDs) != 0 {
		t.Error("intersection with empty list should be empty")
	}
}

func TestBuilderAccumulatesTF(t *testing.T) {
	b := NewBuilder(0)
	b.Add(3, 1)
	b.Add(3, 2)
	b.Add(7, 1)
	l := b.Build()
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := postingsOf(l); !reflect.DeepEqual(got, []Posting{{3, 3}, {7, 1}}) {
		t.Errorf("Postings = %v", got)
	}
}

func TestBuilderPanicsOnDescending(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Builder.Add did not panic on descending DocID")
		}
	}()
	b := NewBuilder(0)
	b.Add(5, 1)
	b.Add(4, 1)
}

func TestIntersectPair(t *testing.T) {
	a := listFrom(1, 3, 5, 7, 9, 11)
	b := listFrom(3, 4, 7, 8, 11, 20)
	r := Intersect([]*List{a, b}, nil)
	if !reflect.DeepEqual(r.DocIDs, []uint32{3, 7, 11}) {
		t.Errorf("DocIDs = %v", r.DocIDs)
	}
}

func TestIntersectPreservesTFAlignment(t *testing.T) {
	a := NewList([]Posting{{1, 10}, {5, 50}, {9, 90}}, 2)
	b := NewList([]Posting{{5, 2}, {9, 3}, {12, 4}}, 2)
	r := Intersect([]*List{a, b}, nil)
	if !reflect.DeepEqual(r.DocIDs, []uint32{5, 9}) {
		t.Fatalf("DocIDs = %v", r.DocIDs)
	}
	if !reflect.DeepEqual(r.TFs[0], []uint32{50, 90}) {
		t.Errorf("TFs[0] = %v", r.TFs[0])
	}
	if !reflect.DeepEqual(r.TFs[1], []uint32{2, 3}) {
		t.Errorf("TFs[1] = %v", r.TFs[1])
	}
}

func TestIntersectTFAlignmentWhenDriverIsNotFirst(t *testing.T) {
	// The shorter list is second; TFs must still come back in input order.
	a := NewList([]Posting{{1, 10}, {5, 50}, {9, 90}, {12, 1}, {15, 2}}, 2)
	b := NewList([]Posting{{5, 7}, {15, 8}}, 2)
	r := Intersect([]*List{a, b}, nil)
	if !reflect.DeepEqual(r.DocIDs, []uint32{5, 15}) {
		t.Fatalf("DocIDs = %v", r.DocIDs)
	}
	if !reflect.DeepEqual(r.TFs[0], []uint32{50, 2}) || !reflect.DeepEqual(r.TFs[1], []uint32{7, 8}) {
		t.Errorf("TFs = %v", r.TFs)
	}
}

func TestIntersectThreeWay(t *testing.T) {
	a := listFrom(1, 2, 3, 4, 5, 6, 7, 8)
	b := listFrom(2, 4, 6, 8)
	c := listFrom(4, 8, 16)
	r := Intersect([]*List{a, b, c}, nil)
	if !reflect.DeepEqual(r.DocIDs, []uint32{4, 8}) {
		t.Errorf("DocIDs = %v", r.DocIDs)
	}
}

func TestIntersectDisjoint(t *testing.T) {
	a := listFrom(1, 2, 3)
	b := listFrom(10, 20, 30)
	if r := Intersect([]*List{a, b}, nil); len(r.DocIDs) != 0 {
		t.Errorf("Len = %d, want 0", len(r.DocIDs))
	}
}

func TestIntersectSingleList(t *testing.T) {
	a := listFrom(1, 2, 3)
	r := Intersect([]*List{a}, nil)
	if !reflect.DeepEqual(r.DocIDs, []uint32{1, 2, 3}) {
		t.Errorf("DocIDs = %v", r.DocIDs)
	}
}

func TestIntersectNoLists(t *testing.T) {
	if r := Intersect(nil, nil); len(r.DocIDs) != 0 {
		t.Error("empty input should give empty result")
	}
}

// mergeIntersect computes the pairwise intersection by a plain
// two-pointer merge without container skipping, touching every entry of
// both lists: the baseline of the paper's cost comparison
// (cost = |L_i| + |L_j|) and the reference for the skip-aware path.
func mergeIntersect(a, b *List, st *Stats) *Intersection {
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

func TestIntersectMatchesMergeIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		a := NewList(randPostings(rng, 1+rng.Intn(200), 500), 8)
		b := NewList(randPostings(rng, 1+rng.Intn(200), 500), 8)
		skip := Intersect([]*List{a, b}, nil)
		merge := mergeIntersect(a, b, nil)
		if !equalIDs(skip.DocIDs, merge.DocIDs) {
			t.Fatalf("trial %d: skip %v != merge %v", trial, skip.DocIDs, merge.DocIDs)
		}
		for i := range skip.TFs {
			if !equalIDs(skip.TFs[i], merge.TFs[i]) {
				t.Fatalf("trial %d: TFs[%d] differ: %v vs %v", trial, i, skip.TFs[i], merge.TFs[i])
			}
		}
	}
}

// equalIDs compares two slices treating nil and empty as equal.
func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randPostings(rng *rand.Rand, n int, max uint32) []Posting {
	ids := randomSortedIDs(rng, n, max)
	ps := make([]Posting, len(ids))
	for i, id := range ids {
		ps[i] = Posting{DocID: id, TF: uint32(1 + rng.Intn(20))}
	}
	return ps
}

// Property: k-way intersection equals the set-theoretic intersection.
func TestIntersectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(3)
		lists := make([]*List, k)
		raw := make([][]uint32, k)
		for i := 0; i < k; i++ {
			ids := randomSortedIDs(r, 1+r.Intn(100), 200)
			raw[i] = ids
			lists[i] = fromDocIDs(ids, 1+r.Intn(16))
		}
		got := Intersect(lists, nil).DocIDs
		want := setIntersect(raw)
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return reflect.DeepEqual(got, want)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSkipCostModelBound(t *testing.T) {
	// cost(L_i ∩ L_j) with skips must be ≤ |L_i| + |L_j| (§3.2.1).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		a := NewList(randPostings(rng, 1+rng.Intn(2000), 100000), DefaultSegmentSize)
		b := NewList(randPostings(rng, 1+rng.Intn(2000), 100000), DefaultSegmentSize)
		var st Stats
		Intersect([]*List{a, b}, &st)
		if st.EntriesScanned > int64(a.Len()+b.Len()) {
			t.Fatalf("entries scanned %d exceeds |a|+|b| = %d", st.EntriesScanned, a.Len()+b.Len())
		}
	}
}

func TestSkipSavingsWhenSelective(t *testing.T) {
	// When |L_i| ≪ |L_j|, skip pointers should avoid scanning most of the
	// long list: cost ≈ |L_i| + |L_i|·M0 (§3.2.2).
	rng := rand.New(rand.NewSource(5))
	long := NewList(randPostings(rng, 100000, 1<<24), DefaultSegmentSize)
	short := NewList(randPostings(rng, 50, 1<<24), DefaultSegmentSize)
	var st Stats
	Intersect([]*List{short, long}, &st)
	bound := int64(short.Len()) + int64(short.Len())*int64(DefaultSegmentSize) + int64(short.Len())
	if st.EntriesScanned > bound {
		t.Errorf("entries scanned %d exceeds selective bound %d", st.EntriesScanned, bound)
	}
	if st.SegmentsSkipped == 0 {
		t.Error("expected some segments to be skipped")
	}
}

func TestIntersectionSize(t *testing.T) {
	a := listFrom(1, 2, 3, 4)
	b := listFrom(2, 4, 6)
	var st Stats
	if got := IntersectionSize([]*List{a, b}, &st); got != 2 {
		t.Errorf("IntersectionSize = %d, want 2", got)
	}
	if got := IntersectionSize([]*List{a}, &st); got != 4 {
		t.Errorf("single-list size = %d, want 4", got)
	}
	if got := IntersectionSize(nil, &st); got != 0 {
		t.Errorf("no-list size = %d, want 0", got)
	}
}

func TestAggregations(t *testing.T) {
	a := listFrom(1, 2, 3, 4)
	b := listFrom(2, 4, 6)
	var st Stats
	lens := map[uint32]int64{2: 100, 4: 50}
	count, sum := CountSum([]*List{a, b}, func(id uint32) int64 { return lens[id] }, &st)
	if count != 2 {
		t.Errorf("count = %d", count)
	}
	if sum != 150 {
		t.Errorf("sum = %d", sum)
	}
	if st.AggregatedEntries != 4 {
		t.Errorf("AggregatedEntries = %d, want 4", st.AggregatedEntries)
	}
}

// TestSumList: the degenerate one-predicate context aggregates over the
// list itself, with γ_count and γ_sum each charging one entry per
// document.
func TestSumList(t *testing.T) {
	l := listFrom(1, 2, 3)
	var st Stats
	count, sum := CountSum([]*List{l}, func(id uint32) int64 { return int64(id) * 10 }, &st)
	if count != 3 || sum != 60 {
		t.Errorf("CountSum over one list = %d, %d", count, sum)
	}
	if st.AggregatedEntries != 6 {
		t.Errorf("AggregatedEntries = %d, want 6", st.AggregatedEntries)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{EntriesScanned: 1, SegmentsSkipped: 2, Seeks: 3, AggregatedEntries: 4, Intersections: 5, ViewGroupsScanned: 6}
	b := a
	a.Add(b)
	if a.EntriesScanned != 2 || a.ViewGroupsScanned != 12 || a.Intersections != 10 {
		t.Errorf("Stats.Add wrong: %+v", a)
	}
	if a.ListWork() != 2+8 {
		t.Errorf("ListWork = %d", a.ListWork())
	}
}

func TestNilStatsSafe(t *testing.T) {
	// All operations must accept a nil *Stats without panicking.
	a := listFrom(1, 2, 3)
	b := listFrom(2, 3, 4)
	Intersect([]*List{a, b}, nil)
	mergeIntersect(a, b, nil)
	CountSum([]*List{a, b}, func(uint32) int64 { return 1 }, nil)
	CountSum([]*List{a}, nil2, nil)
	VisitConjunction(context.Background(), []*List{a, b}, nil, func(uint32) {})
}

func nil2(uint32) int64 { return 0 }

// BenchmarkIntersection compares the skip-pointer intersection against
// the plain merge, in the regime where skips pay (|L_i| ≪ |L_j|) and
// where they cannot (similar lengths).
func BenchmarkIntersection(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	long := NewList(randPostings(rng, 200000, 1<<24), DefaultSegmentSize)
	short := NewList(randPostings(rng, 200, 1<<24), DefaultSegmentSize)
	similar := NewList(randPostings(rng, 180000, 1<<24), DefaultSegmentSize)

	b.Run("skip/selective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Intersect([]*List{short, long}, nil)
		}
	})
	b.Run("merge/selective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mergeIntersect(short, long, nil)
		}
	})
	b.Run("skip/similar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Intersect([]*List{similar, long}, nil)
		}
	})
	b.Run("merge/similar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mergeIntersect(similar, long, nil)
		}
	})
}
