package postings

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// quarantinedCopy is mappedCopy with the first payload byte of the
// middle block flipped and the quarantine armed: that block reads as an
// empty container.
func quarantinedCopy(t *testing.T, l *List) *List {
	t.Helper()
	metas, dir, encoded := encodeBlocks(t, l)
	payload := append([]byte(nil), encoded...)
	mid := decodeDirEntry(dir[len(l.chunks)/2*BlockDirEntrySize:])
	payload[mid.off] ^= 0x40
	ml, err := validatedMappedList(metas[0], dir, payload, l.segSize, nil)
	if err != nil {
		t.Fatalf("NewMappedList: %v", err)
	}
	q := &Quarantine{}
	ml.SetQuarantine(q)
	ml.ForEach(func(uint32, uint32) {})
	if q.Blocks() != 1 {
		t.Fatalf("flipping one payload byte quarantined %d blocks", q.Blocks())
	}
	return ml
}

// listVariants returns l in every storage the kernels must agree over:
// the three heap container layouts, a mapped copy, and a mapped copy
// with a quarantined block.
func listVariants(t *testing.T, l *List) map[string]*List {
	v := representations(l)
	if l.Len() > 0 { // the block codec has no encoding of an empty list
		v["mapped"] = mappedCopy(t, l, nil)
		v["quarantined"] = quarantinedCopy(t, l)
	}
	return v
}

// bruteContext intersects the lists as they read (a quarantined
// container reads empty) and sums lens over the result.
func bruteContext(preds []*List, lens []int32) (ids []uint32, sum int64) {
	hits := make([]uint8, len(lens))
	for _, l := range preds {
		if l != nil {
			l.ForEach(func(d, _ uint32) { hits[d]++ })
		}
	}
	for d, n := range hits {
		if len(preds) > 0 && int(n) == len(preds) {
			ids = append(ids, uint32(d))
			sum += int64(lens[d])
		}
	}
	return ids, sum
}

// TestContextSetEquivalence: the materialized context answers
// count/len/df/tc exactly as CountSum/CountTFSum over the raw predicate
// lists do and as a brute-force scan does — for one to three predicate
// lists, every container layout, heap and mapped storage (one block
// quarantined), contexts spanning several chunk ranges, keywords far
// smaller and far larger than the context (so both sides drive), empty
// intersections (an all-dense range whose AND is empty included) and
// absent terms. The set's own list must enumerate exactly the context,
// by ForEach and under a seeking cursor: a stale bit from a recycled
// block or an empty chunk in the list would show. Conjoining a keyword
// with the set selects the documents, TFs included, that conjoining it
// with the predicate lists does.
func TestContextSetEquivalence(t *testing.T) {
	const maxID = 5 * chunkSpan
	rng := rand.New(rand.NewSource(141))
	lens := make([]int32, maxID)
	for i := range lens {
		lens[i] = int32(rng.Intn(400) + 1)
	}
	bg := context.Background()
	pred := func(n int) *List { return fromDocIDs(randomSortedIDs(rng, n, maxID), 16) }
	kwBase := map[string]*List{
		"rare":  mixedList(rng, 40, maxID, true, 16),
		"mid":   mixedList(rng, 6000, maxID, true, 16),
		"broad": mixedList(rng, 90000, maxID, true, 16),
		"ones":  mixedList(rng, 3000, maxID, false, 16),
	}
	// Two dense predicate lists that share no document in chunk range 0
	// (evens against odds) or 3, and every other one in range 1.
	var evens, odds []uint32
	for d := uint32(0); d < chunkSpan; d += 2 {
		evens = append(evens, d, chunkSpan+d, 3*chunkSpan+d)
		odds = append(odds, d+1, chunkSpan+d, 3*chunkSpan+d+1)
	}
	sortIDs(evens)
	sortIDs(odds)
	kws := map[string]*List{"absent": nil}
	for name, l := range kwBase {
		for layout, v := range listVariants(t, l) {
			kws[name+"/"+layout] = v
		}
	}
	contexts := map[string][]*List{
		"one-small":    {pred(60)},
		"one-large":    {pred(120000)},
		"two-large":    {pred(150000), pred(100000)},
		"two-skewed":   {pred(200000), pred(300)},
		"three":        {pred(180000), pred(160000), pred(140000)},
		"disjoint":     {fromDocIDs([]uint32{1, 3, 5, chunkSpan + 1}, 16), fromDocIDs([]uint32{2, 4, chunkSpan + 2}, 16)},
		"dense-gaps":   {fromDocIDs(evens, 16), fromDocIDs(odds, 16)},
		"dense-gaps-3": {fromDocIDs(evens, 16), fromDocIDs(odds, 16), pred(250000)},
		"absent-term":  {pred(5000), nil},
		"absent-alone": {nil},
		"empty-list":   {pred(5000), fromDocIDs(nil, 16)},
	}
	for cname, base := range contexts {
		// Every predicate list in the same layout per round keeps the
		// product small; layouts mix across the lists of "mixed".
		layouts := []string{"adaptive", "sparse", "dense", "mapped", "quarantined", "mixed"}
		for _, layout := range layouts {
			preds := make([]*List, len(base))
			for i, l := range base {
				if l == nil {
					continue
				}
				v := listVariants(t, l)
				pick := layout
				if layout == "mixed" {
					pick = layouts[(i*2)%5]
				}
				if preds[i] = v[pick]; preds[i] == nil {
					preds[i] = l
				}
			}
			label := cname + "/" + layout
			wantIDs, wantSum := bruteContext(preds, lens)
			param := func(d uint32) int64 { return int64(lens[d]) }
			var stRaw, stSet Stats
			count, sum := CountSum(preds, param, &stRaw)
			set, err := NewContextSet(bg, preds, lens, &stSet)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if count != int64(len(wantIDs)) || sum != wantSum {
				t.Fatalf("%s: CountSum = (%d, %d), brute force (%d, %d)", label, count, sum, len(wantIDs), wantSum)
			}
			if set.Count() != count || set.Sum() != sum {
				t.Fatalf("%s: set = (%d, %d), CountSum (%d, %d)", label, set.Count(), set.Sum(), count, sum)
			}
			if stSet != stRaw {
				t.Fatalf("%s: building the set charged %+v, CountSum %+v", label, stSet, stRaw)
			}
			if got := docIDs(set.Preds()[0]); !equalIDs(got, wantIDs) {
				t.Fatalf("%s: set enumerates %d documents, context has %d", label, len(got), len(wantIDs))
			}
			if got := seekWalk(set.Preds()[0]); !equalIDs(got, wantIDs) {
				t.Fatalf("%s: a seeking cursor over the set finds %d documents, context has %d", label, len(got), len(wantIDs))
			}
			in := make(map[uint32]bool, len(wantIDs))
			for _, d := range wantIDs {
				in[d] = true
			}
			for kname, kw := range kws {
				var wantDF, wantTC int64
				if kw != nil {
					kw.ForEach(func(d, tf uint32) {
						if in[d] {
							wantDF++
							wantTC += int64(tf)
						}
					})
				}
				df, tc := CountTFSum(kw, preds, nil)
				if df != wantDF || tc != wantTC {
					t.Fatalf("%s × %s: CountTFSum = (%d, %d), brute force (%d, %d)", label, kname, df, tc, wantDF, wantTC)
				}
				var st Stats
				df, tc, err := set.CountTFSum(bg, kw, &st)
				if err != nil || df != wantDF || tc != wantTC {
					t.Fatalf("%s × %s: set.CountTFSum = (%d, %d, %v), want (%d, %d)", label, kname, df, tc, err, wantDF, wantTC)
				}
				if st.AggregatedEntries != wantDF {
					t.Fatalf("%s × %s: charged %d aggregated entries for df %d", label, kname, st.AggregatedEntries, wantDF)
				}
				raw := Intersect(append([]*List{kw}, preds...), nil)
				viaSet := Intersect(append([]*List{kw}, set.Preds()...), nil)
				if !equalIDs(viaSet.DocIDs, raw.DocIDs) || !equalIDs(viaSet.TFs[0], raw.TFs[0]) {
					t.Fatalf("%s × %s: conjoining with the set finds %d documents, with the predicate lists %d", label, kname, len(viaSet.DocIDs), len(raw.DocIDs))
				}
			}
			set.Release()
		}
	}
}

func sortIDs(ids []uint32) { sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) }

// seekWalk enumerates l the way the scoring phase's predicate cursor
// does: by forward seeks, most of them to the very next docID.
func seekWalk(l *List) []uint32 {
	var ids []uint32
	if l == nil || l.Len() == 0 {
		return ids
	}
	c := NewBoundCursor(l, nil)
	for target := uint32(0); c.NextAtLeast(target) && !c.Exhausted(); {
		d := c.DocID()
		if c.Exhausted() {
			break
		}
		ids = append(ids, d)
		target = d + 1
	}
	return ids
}

// TestContextSetDrivesFromSmallerSide: the df/tc kernel's work follows
// the smaller side of each chunk range — a tiny context against a long
// keyword list costs about the context, a rare keyword against a large
// context about the keyword — and never exceeds the cursor conjunction
// over the raw lists it replaces.
func TestContextSetDrivesFromSmallerSide(t *testing.T) {
	const maxID = 3 * chunkSpan
	rng := rand.New(rand.NewSource(143))
	lens := make([]int32, maxID)
	bg := context.Background()
	cases := []struct {
		name          string
		kwN           int
		predNs        []int
		smallerThanKw bool
	}{
		{"tiny context, long keyword", 60000, []int{2000, 900}, true},
		{"rare keyword, large context", 50, []int{150000, 120000}, false},
		{"one tiny predicate list", 60000, []int{40}, true},
		{"rare keyword, one large list", 50, []int{150000}, false},
	}
	for _, tc := range cases {
		kw := mixedList(rng, tc.kwN, maxID, true, 16)
		var preds []*List
		for _, n := range tc.predNs {
			preds = append(preds, fromDocIDs(randomSortedIDs(rng, n, maxID), 16))
		}
		set, err := NewContextSet(bg, preds, lens, nil)
		if err != nil {
			t.Fatal(err)
		}
		var st, raw Stats
		if _, _, err := set.CountTFSum(bg, kw, &st); err != nil {
			t.Fatal(err)
		}
		CountTFSum(kw, preds, &raw)
		small := set.Count()
		if !tc.smallerThanKw {
			small = int64(kw.Len())
		}
		// Driver elements plus one probe each; gallops over an array land
		// within a constant factor.
		if st.ListWork() > 12*small+int64(3*len(kw.chunks)) {
			t.Errorf("%s: list work %d for a smaller side of %d", tc.name, st.ListWork(), small)
		}
		if st.ListWork() > raw.ListWork() {
			t.Errorf("%s: set-backed work %d exceeds the raw conjunction's %d", tc.name, st.ListWork(), raw.ListWork())
		}
		set.Release()
	}
}

// TestContextSetPooled: after warm-up a query's set costs no allocation
// beyond what the CountSum pass it rides on allocates anyway.
func TestContextSetPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const maxID = 4 * chunkSpan
	rng := rand.New(rand.NewSource(145))
	lens := make([]int32, maxID)
	preds := []*List{fromDocIDs(randomSortedIDs(rng, 90000, maxID), 0), fromDocIDs(randomSortedIDs(rng, 70000, maxID), 0)}
	kw := mixedList(rng, 2000, maxID, true, 0)
	bg := context.Background()
	param := func(d uint32) int64 { return int64(lens[d]) }
	pass := testing.AllocsPerRun(200, func() { CountSumCtx(bg, preds, param, nil) })
	query := testing.AllocsPerRun(200, func() {
		set, err := NewContextSet(bg, preds, lens, nil)
		if err != nil {
			t.Fatal(err)
		}
		set.CountTFSum(bg, kw, nil)
		set.CountTFSum(bg, kw, nil)
		set.Release()
	})
	if query > pass {
		t.Fatalf("a set-backed query allocates %.1f times, the bare CountSum pass %.1f", query, pass)
	}
}

// TestSingleListKernelsPollContext: a one-term context is one long list,
// and CountSumCtx over it (hence NewContextSet) and CountTFSumCtx with no
// predicate lists used to run to completion whatever the context said.
func TestSingleListKernelsPollContext(t *testing.T) {
	ids := make([]uint32, 200000)
	ps := make([]Posting, len(ids))
	for i := range ids {
		ids[i] = uint32(3 * i)
		ps[i] = Posting{DocID: ids[i], TF: 2}
	}
	pred, kw := fromDocIDs(ids, 0), NewList(ps, 0)
	lens := make([]int32, 3*len(ids))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	one := func(uint32) int64 { return 1 }
	if n, _, err := CountSumCtx(ctx, []*List{pred}, one, nil); !errors.Is(err, context.Canceled) || n >= int64(pred.Len()) {
		t.Fatalf("CountSumCtx over one list = %d, %v; want an early context.Canceled", n, err)
	}
	if set, err := NewContextSet(ctx, []*List{pred}, lens, nil); !errors.Is(err, context.Canceled) || set != nil {
		t.Fatalf("NewContextSet over one list = %v, %v; want context.Canceled", set, err)
	}
	for name, l := range map[string]*List{"heap TFs": kw, "mapped": mappedCopy(t, kw, nil), "TF-less": pred} {
		if df, _, err := CountTFSumCtx(ctx, l, nil, nil); !errors.Is(err, context.Canceled) || df >= int64(l.Len()) {
			t.Fatalf("CountTFSumCtx(%s, no predicates) = %d, %v; want an early context.Canceled", name, df, err)
		}
	}
	set, err := NewContextSet(context.Background(), []*List{pred}, lens, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Release()
	if df, _, err := set.CountTFSum(ctx, kw, nil); !errors.Is(err, context.Canceled) || df >= int64(kw.Len()) {
		t.Fatalf("set.CountTFSum = %d, %v; want an early context.Canceled", df, err)
	}
	// An uncancelled context still gets the exact answers.
	if n, sum, err := CountSumCtx(context.Background(), []*List{pred}, one, nil); err != nil || n != int64(pred.Len()) || sum != n {
		t.Fatalf("CountSumCtx over one list = (%d, %d, %v)", n, sum, err)
	}
	if df, tc, err := CountTFSumCtx(context.Background(), kw, nil, nil); err != nil || df != int64(kw.Len()) || tc != 2*df {
		t.Fatalf("CountTFSumCtx without predicates = (%d, %d, %v)", df, tc, err)
	}
}

// TestChargeSeekShiftMatchesDivision: the power-of-two shift in
// chargeSeek is an implementation detail — every counter equals what the
// plain divisions charge, for segment sizes on both sides of the branch.
func TestChargeSeekShiftMatchesDivision(t *testing.T) {
	for _, segSize := range []int{1, 3, 64, 128, 200} {
		rng := rand.New(rand.NewSource(int64(147 + segSize)))
		l := mixedList(rng, 30000, 3*chunkSpan, true, segSize)
		var got, want Stats
		c := newCursor(l, &got)
		pos := 0 // the model cursor: a global position and the division-based charge
		for !c.exhausted() {
			target := c.docID() + uint32(rng.Intn(4000))
			ok := c.seek(target)
			want.Seeks++
			land := l.n
			if ok {
				land = c.gpos
			}
			if land != pos {
				sOld, sMin := pos/segSize, land/segSize
				if land >= l.n {
					sMin = (l.n + segSize - 1) / segSize
				}
				if sMin > sOld {
					want.SegmentsSkipped += int64(sMin - sOld)
					if start := sMin * segSize; land > start {
						want.EntriesScanned += int64(land - start)
					}
				} else {
					want.EntriesScanned += int64(land - pos)
				}
				pos = land
			}
			if !ok {
				break
			}
			if rng.Intn(3) == 0 {
				c.next()
				want.EntriesScanned++
				pos++
			}
		}
		if got != want {
			t.Errorf("segSize %d: cursor charged %+v, division model %+v", segSize, got, want)
		}
		if fmt.Sprint(c.segShift >= 0) != fmt.Sprint(segSize&(segSize-1) == 0) {
			t.Errorf("segSize %d: segShift %d", segSize, c.segShift)
		}
	}
}
