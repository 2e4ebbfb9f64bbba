package postings

import (
	"math"
	"math/rand"
	"testing"
)

// rebuild returns the same posting data laid out with a forced container
// policy: threshold 1 makes every non-empty chunk a bitset, a huge
// threshold keeps every chunk a sorted array, and DenseThreshold is the
// adaptive production choice.
func rebuild(l *List, threshold int) *List {
	ids := make([]uint32, 0, l.Len())
	tfs := make([]uint32, 0, l.Len())
	l.ForEach(func(docID, tf uint32) {
		ids = append(ids, docID)
		tfs = append(tfs, tf)
	})
	return newListRaw(ids, tfs, l.segSize, threshold)
}

const allSparse = math.MaxInt32 // threshold no real chunk reaches

// representations returns the three container layouts of the same list.
func representations(l *List) map[string]*List {
	return map[string]*List{
		"adaptive": l,
		"sparse":   rebuild(l, allSparse),
		"dense":    rebuild(l, 1),
	}
}

// shapes builds a mix of list shapes around the container machinery's
// edges: empty, single element, chunk-boundary stragglers, dense runs,
// uniform sparse, and the top of the docID space.
func shapes(rng *rand.Rand) map[string]*List {
	strided := func(start, stride, n uint32) []uint32 {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = start + uint32(i)*stride
		}
		return ids
	}
	withTFs := func(ids []uint32) *List {
		tfs := make([]uint32, len(ids))
		for i := range tfs {
			tfs[i] = uint32(rng.Intn(7) + 1)
		}
		return newListRaw(append([]uint32(nil), ids...), tfs, 4, DenseThreshold)
	}
	return map[string]*List{
		"empty":       fromDocIDs(nil, 4),
		"single":      fromDocIDs([]uint32{chunkSpan}, 4),
		"boundary":    fromDocIDs([]uint32{0, chunkSpan - 1, chunkSpan, 2*chunkSpan - 1, 2 * chunkSpan}, 4),
		"top":         fromDocIDs([]uint32{math.MaxUint32 - 1, math.MaxUint32}, 4),
		"denseRun":    fromDocIDs(strided(100, 3, 3*DenseThreshold), 128),
		"denseTF":     withTFs(strided(chunkSpan/2, 2, 2*DenseThreshold)),
		"sparseWide":  fromDocIDs(randomSortedIDs(rng, 300, 10*chunkSpan), 16),
		"sparseTF":    withTFs(randomSortedIDs(rng, 500, 6*chunkSpan)),
		"mixedChunks": fromDocIDs(append(strided(0, 2, DenseThreshold+500), randomSortedIDs(rng, 80, 4*chunkSpan)[40:]...), 64),
	}
}

// TestContainerAccessEquivalence checks that the streaming accessors are
// independent of the container layout.
func TestContainerAccessEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, l := range shapes(rng) {
		want := postingsOf(l)
		reps := representations(l)
		for repName, r := range reps {
			if r.Len() != l.Len() {
				t.Fatalf("%s/%s: Len=%d want %d", name, repName, r.Len(), l.Len())
			}
			got := postingsOf(r)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: Postings[%d]=%v want %v", name, repName, i, got[i], want[i])
				}
			}
			if r.SumTF() != l.SumTF() {
				t.Fatalf("%s/%s: SumTF=%d want %d", name, repName, r.SumTF(), l.SumTF())
			}
		}
	}
}

// TestContainerSetOpEquivalence intersects every pair of
// shapes under all 3×3 layout combinations and checks the results (and
// count-only sizes) against the brute-force set operations.
func TestContainerSetOpEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all := shapes(rng)
	for aName, a := range all {
		for bName, b := range all {
			wantIDs := setIntersect([][]uint32{docIDs(a), docIDs(b)})
			aTF, bTF := tfs(a), tfs(b)
			for aRep, ra := range representations(a) {
				for bRep, rb := range representations(b) {
					label := aName + "(" + aRep + ")∩" + bName + "(" + bRep + ")"
					res := Intersect([]*List{ra, rb}, nil)
					if !equalIDs(res.DocIDs, wantIDs) {
						t.Fatalf("%s: got %d docs, want %d", label, len(res.DocIDs), len(wantIDs))
					}
					for i, d := range res.DocIDs {
						if res.TFs[0][i] != aTF[d] || res.TFs[1][i] != bTF[d] {
							t.Fatalf("%s: TFs at doc %d = (%d,%d), want (%d,%d)",
								label, d, res.TFs[0][i], res.TFs[1][i], aTF[d], bTF[d])
						}
					}
					if n := IntersectionSize([]*List{ra, rb}, nil); n != int64(len(wantIDs)) {
						t.Fatalf("%s: IntersectionSize=%d want %d", label, n, len(wantIDs))
					}
				}
			}
		}
	}
}

// TestContainerAggregateEquivalence checks the count-only kernels
// (CountSum, CountTFSum) across layouts against brute force.
func TestContainerAggregateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	param := func(d uint32) int64 { return int64(d%13) + 1 }
	kw := newListRaw(randomSortedIDs(rng, 2000, 3*chunkSpan), nil, 32, DenseThreshold)
	{
		tfs := make([]uint32, kw.Len())
		for i := range tfs {
			tfs[i] = uint32(rng.Intn(5) + 1)
		}
		kw = newListRaw(docIDs(kw), tfs, 32, DenseThreshold)
	}
	ctxA := fromDocIDs(randomSortedIDs(rng, DenseThreshold*2, 3*chunkSpan), 32)
	ctxB := fromDocIDs(randomSortedIDs(rng, 900, 3*chunkSpan), 32)

	wantIDs := setIntersect([][]uint32{docIDs(ctxA), docIDs(ctxB)})
	var wantSum int64
	for _, d := range wantIDs {
		wantSum += param(d)
	}
	kwInCtx := setIntersect([][]uint32{docIDs(kw), docIDs(ctxA), docIDs(ctxB)})
	var wantTC int64
	kwTF := tfs(kw)
	for _, d := range kwInCtx {
		wantTC += int64(kwTF[d])
	}

	for aRep, ra := range representations(ctxA) {
		for bRep, rb := range representations(ctxB) {
			for kRep, rk := range representations(kw) {
				label := aRep + "/" + bRep + "/" + kRep
				count, sum := CountSum([]*List{ra, rb}, param, nil)
				if count != int64(len(wantIDs)) || sum != wantSum {
					t.Fatalf("%s: CountSum=(%d,%d) want (%d,%d)", label, count, sum, len(wantIDs), wantSum)
				}
				df, tc := CountTFSum(rk, []*List{ra, rb}, nil)
				if df != int64(len(kwInCtx)) || tc != wantTC {
					t.Fatalf("%s: CountTFSum=(%d,%d) want (%d,%d)", label, df, tc, len(kwInCtx), wantTC)
				}
			}
		}
	}
}

// TestContainerStatParity pins the skip-model bookkeeping to the layout:
// the cursor paths (Intersect over TF-carrying lists, CountTFSum,
// mergeIntersect) must charge the same EntriesScanned/SegmentsSkipped/
// Seeks regardless of whether a chunk is an array or a bitset, because
// the cost model counts logical entries, not physical words. (TF-less
// intersections ride the count-only kernel, whose charges are
// entry-equivalents and layout-dependent by design.)
func TestContainerStatParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	withTFs := func(ids []uint32) *List {
		tfs := make([]uint32, len(ids))
		for i := range tfs {
			tfs[i] = uint32(rng.Intn(4) + 2) // ≥ 2 so the TF array is kept
		}
		return newListRaw(ids, tfs, 128, DenseThreshold)
	}
	a := withTFs(randomSortedIDs(rng, 6000, 2*chunkSpan))
	b := withTFs(randomSortedIDs(rng, 400, 2*chunkSpan))
	layouts := []int{allSparse, 1, DenseThreshold}
	var want *Stats
	for _, th := range layouts {
		ra, rb := rebuild(a, th), rebuild(b, th)
		st := &Stats{}
		Intersect([]*List{ra, rb}, st)
		CountTFSum(rb, []*List{ra}, st)
		mergeIntersect(ra, rb, st)
		st.BitmapWords = 0 // physical-representation counter, layout-dependent by design
		if want == nil {
			w := *st
			want = &w
			continue
		}
		if *st != *want {
			t.Fatalf("threshold %d: stats %+v differ from %+v", th, *st, *want)
		}
	}
}

// TestEncodeDecodeListRoundTrip checks the format-v2 list codec over
// both container kinds, with and without TF payloads.
func TestEncodeDecodeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, l := range shapes(rng) {
		data := EncodeList(l)
		got, err := DecodeList(data, l.segSize)
		if err != nil {
			t.Fatalf("%s: DecodeList: %v", name, err)
		}
		if got.Len() != l.Len() || got.HasTFs() != l.HasTFs() {
			t.Fatalf("%s: round trip Len=%d HasTFs=%v, want %d/%v",
				name, got.Len(), got.HasTFs(), l.Len(), l.HasTFs())
		}
		want := postingsOf(l)
		for i, p := range postingsOf(got) {
			if p != want[i] {
				t.Fatalf("%s: round trip posting %d = %v, want %v", name, i, p, want[i])
			}
		}
		sp, dn := l.Containers()
		gsp, gdn := got.Containers()
		if sp != gsp || dn != gdn {
			t.Fatalf("%s: containers (%d,%d) → (%d,%d) after round trip", name, sp, dn, gsp, gdn)
		}
	}
}

// TestDecodeListRejectsCorruptInput exercises the codec's error paths.
func TestDecodeListRejectsCorruptInput(t *testing.T) {
	valid := EncodeList(fromDocIDs([]uint32{1, 5, 9}, 4))
	cases := map[string][]byte{
		"empty":         {},
		"badFlags":      {0xFE, 0},
		"truncated":     valid[:len(valid)-1],
		"trailing":      append(append([]byte(nil), valid...), 0x01),
		"zeroGap":       {0x00, 0x02, 0x05, 0x00},
		"countOverrun":  {0x00, 0xFF, 0xFF, 0x01},
		"docIDOverflow": {0x00, 0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x02},
	}
	for name, data := range cases {
		if _, err := DecodeList(data, 4); err == nil {
			t.Errorf("%s: DecodeList accepted corrupt input", name)
		}
	}
}

// TestGallopSearch16 pins the galloping primitive against the linear
// scan it replaces.
func TestGallopSearch16(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint16, 0, 200)
	seen := map[uint16]bool{}
	for len(keys) < 200 {
		k := uint16(rng.Intn(1 << 16))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sortU16(keys)
	for trial := 0; trial < 2000; trial++ {
		from := rng.Intn(len(keys) + 1)
		target := uint16(rng.Intn(1 << 16))
		got := gallopSearch16(keys, from, target)
		want := from
		for want < len(keys) && keys[want] < target {
			want++
		}
		if got != want {
			t.Fatalf("gallopSearch16(from=%d, target=%d)=%d want %d", from, target, got, want)
		}
	}
}

func sortU16(s []uint16) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
