package postings

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// validatedMappedList is what an index does for one term: validate the
// directory at open, then build the list on its first lookup.
func validatedMappedList(meta MappedListMeta, dir, payload []byte, segSize int, cache *BlockCache) (*List, error) {
	if err := ValidateMappedList(meta, dir, payload); err != nil {
		return nil, err
	}
	return NewMappedList(meta, dir, payload, segSize, cache), nil
}

// encodeHeap writes every chunk of heap list l, one block each, and
// returns its dictionary record.
func encodeHeap(e *MappedEncoder, l *List) (MappedListMeta, error) {
	meta := MappedListMeta{
		N:          int32(l.Len()),
		SumTF:      l.SumTF(),
		HasTFs:     l.HasTFs(),
		HasBounds:  l.HasBounds(),
		FirstBlock: int32(e.blocks),
		NumBlocks:  int32(len(l.chunks)),
	}
	for ci, c := range l.chunks {
		keys, words, tfs, _ := l.payloadQ(ci)
		var bound ChunkBound
		if l.bounds != nil {
			bound = l.bounds[ci]
		}
		if err := e.encode(c.base, int(c.n), keys, words, tfs, bound); err != nil {
			return meta, err
		}
	}
	return meta, nil
}

// encodeBlocks writes ls through one MappedEncoder and returns their
// TOC records, the directory and the payload region.
func encodeBlocks(t testing.TB, ls ...*List) ([]MappedListMeta, []byte, []byte) {
	t.Helper()
	var payload bytes.Buffer
	e := NewMappedEncoder(&payload, 0)
	metas := make([]MappedListMeta, len(ls))
	for i, l := range ls {
		meta, err := encodeHeap(e, l)
		if err != nil {
			t.Fatal(err)
		}
		metas[i] = meta
	}
	return metas, e.Dir(), payload.Bytes()
}

// mappedCopy round-trips l through the v4 block codec, returning a
// mapped list backed by the encoder's buffers.
func mappedCopy(t *testing.T, l *List, cache *BlockCache) *List {
	t.Helper()
	metas, dir, payload := encodeBlocks(t, l)
	ml, err := validatedMappedList(metas[0], dir, payload, l.segSize, cache)
	if err != nil {
		t.Fatalf("NewMappedList: %v", err)
	}
	if !(ml.src != nil) {
		t.Fatalf("mapped copy not mapped")
	}
	return ml
}

// assertListsEqual compares every posting and the aggregate accessors.
func assertListsEqual(t *testing.T, want, got *List) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("Len: %d != %d", got.Len(), want.Len())
	}
	if want.SumTF() != got.SumTF() {
		t.Fatalf("SumTF: %d != %d", got.SumTF(), want.SumTF())
	}
	if want.HasTFs() != got.HasTFs() {
		t.Fatalf("HasTFs: %v != %v", got.HasTFs(), want.HasTFs())
	}
	if want.HasBounds() != got.HasBounds() {
		t.Fatalf("HasBounds: %v != %v", got.HasBounds(), want.HasBounds())
	}
	type pt struct{ d, tf uint32 }
	var wps, gps []pt
	want.ForEach(func(d, tf uint32) { wps = append(wps, pt{d, tf}) })
	got.ForEach(func(d, tf uint32) { gps = append(gps, pt{d, tf}) })
	for i := range wps {
		if wps[i] != gps[i] {
			t.Fatalf("posting %d: %+v != %+v", i, gps[i], wps[i])
		}
	}
	if want.HasBounds() {
		for ci := 0; ci < len(want.chunks); ci++ {
			if want.bounds[ci] != got.bounds[ci] {
				t.Fatalf("chunk %d bound: %+v != %+v", ci, got.bounds[ci], want.bounds[ci])
			}
		}
		if want.MaxTF() != got.MaxTF() || want.MinDocLen() != got.MinDocLen() {
			t.Fatalf("list ceilings differ")
		}
	}
}

// mixedList builds a list exercising every chunk shape: sparse raw-ish,
// sparse packed-ish (tight gaps), dense, TFs present or elided.
func mixedList(rng *rand.Rand, n int, maxID uint32, withTF bool, segSize int) *List {
	ids := randomSortedIDs(rng, n, maxID)
	var tfs []uint32
	if withTF {
		tfs = make([]uint32, len(ids))
		for i := range tfs {
			switch rng.Intn(4) {
			case 0:
				tfs[i] = 1 // all-ones runs → elided TF columns in some blocks
			default:
				tfs[i] = uint32(rng.Intn(9) + 1)
			}
		}
	}
	return newListRaw(ids, tfs, segSize, DenseThreshold)
}

func TestMappedListEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(9000) + 1
		maxID := uint32(rng.Intn(1<<18) + 1)
		withTF := trial%2 == 0
		l := mixedList(rng, n, maxID, withTF, 4)
		if trial%3 == 0 {
			l.BuildBounds(fakeDocLen)
		}
		ml := mappedCopy(t, l, nil)
		assertListsEqual(t, l, ml)
	}
}

func TestMappedCursorCostParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		a := mixedList(rng, rng.Intn(4000)+1, 1<<17, trial%2 == 0, 4)
		b := mixedList(rng, rng.Intn(4000)+1, 1<<17, trial%2 == 1, 4)
		var stHeap, stMapped Stats
		rh := Intersect([]*List{a, b}, &stHeap)
		rm := Intersect([]*List{mappedCopy(t, a, nil), mappedCopy(t, b, nil)}, &stMapped)
		if !equalIDs(rh.DocIDs, rm.DocIDs) {
			t.Fatalf("trial %d: intersection differs", trial)
		}
		for i := range rh.TFs {
			for j := range rh.TFs[i] {
				if rh.TFs[i][j] != rm.TFs[i][j] {
					t.Fatalf("trial %d: TF alignment differs", trial)
				}
			}
		}
		if stHeap != stMapped {
			t.Fatalf("trial %d: cost charges differ: heap %+v mapped %+v", trial, stHeap, stMapped)
		}
	}
}

// TestMappedVisitAndSizeParity: the count-only conjunction kernel visits
// the same documents, at the same charges, over mapped lists as over
// their heap originals.
func TestMappedVisitAndSizeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		var heap, mapped []*List
		for i := 0; i < rng.Intn(3)+2; i++ {
			l := mixedList(rng, rng.Intn(3000)+1, 1<<17, i%2 == 0, 0)
			heap = append(heap, l)
			mapped = append(mapped, mappedCopy(t, l, nil))
		}
		var idsHeap, idsMapped []uint32
		var stHeap, stMapped Stats
		if err := VisitConjunction(context.Background(), heap, &stHeap, func(d uint32) { idsHeap = append(idsHeap, d) }); err != nil {
			t.Fatal(err)
		}
		if err := VisitConjunction(context.Background(), mapped, &stMapped, func(d uint32) { idsMapped = append(idsMapped, d) }); err != nil {
			t.Fatal(err)
		}
		if !equalIDs(idsHeap, idsMapped) || stHeap != stMapped {
			t.Fatalf("trial %d: visit differs: heap %d docs %+v, mapped %d docs %+v", trial, len(idsHeap), stHeap, len(idsMapped), stMapped)
		}
		if IntersectionSize(heap, nil) != IntersectionSize(mapped, nil) {
			t.Fatalf("trial %d: IntersectionSize differs", trial)
		}
	}
}

// TestMappedSeekStaysPending verifies the skip-without-decompress path:
// a seek that is satisfied by a pending chunk's base must not
// materialize the block.
func TestMappedSeekStaysPending(t *testing.T) {
	// Two chunks: [0..9] and a second at base 1<<16.
	ids := []uint32{1, 5, 9, 1 << 16, 1<<16 + 3}
	l := newListRaw(ids, nil, 4, DenseThreshold)
	ml := mappedCopy(t, l, nil)
	c := NewBoundCursor(ml, nil)
	if ml.residentAt(0) {
		t.Fatalf("chunk 0 materialized before any access")
	}
	if !c.NextAtLeast(1 << 15) {
		t.Fatalf("seek failed")
	}
	// The landing chunk (ci=1) must still be pending: target is below its
	// base, so metadata alone answers the position.
	if ml.residentAt(1) {
		t.Fatalf("chunk 1 materialized by a base-satisfied seek")
	}
	if !c.ContainerResident() == false {
		// ContainerResident must agree with residentAt.
		t.Fatalf("ContainerResident inconsistent")
	}
	if got := c.DocID(); got != 1<<16 {
		t.Fatalf("DocID after resolve = %d", got)
	}
	if !ml.residentAt(1) {
		t.Fatalf("chunk 1 not materialized by DocID")
	}
}

// TestMappedSkipContainerNoDecode verifies SkipContainer over a pending
// chunk never touches its payload.
func TestMappedSkipContainerNoDecode(t *testing.T) {
	var ids []uint32
	for c := 0; c < 4; c++ {
		base := uint32(c) << 16
		for i := 0; i < 100; i++ {
			ids = append(ids, base+uint32(i*7))
		}
	}
	l := newListRaw(ids, nil, 4, DenseThreshold)
	ml := mappedCopy(t, l, nil)
	var st Stats
	bc := NewBoundCursor(ml, &st)
	for !bc.Exhausted() {
		if !bc.SkipContainer() {
			break
		}
	}
	for ci := 0; ci < len(ml.chunks); ci++ {
		if ml.residentAt(ci) {
			t.Fatalf("chunk %d materialized during container-only skipping", ci)
		}
	}
	if st.SegmentsSkipped == 0 {
		t.Fatalf("no skip charges recorded")
	}
}

// TestMappedSkipNonSurvivorsElidedTF verifies the O(1) dismissal of a
// mapped block whose all-ones TF column was elided.
func TestMappedSkipNonSurvivorsElidedTF(t *testing.T) {
	ids := make([]uint32, 500)
	tfs := make([]uint32, 500)
	for i := range ids {
		ids[i] = uint32(i * 3)
		tfs[i] = 1 // all ones → elided on encode, but HasTFs stays true
	}
	ids = append(ids, 1<<16)
	tfs = append(tfs, 5)
	l := newListRaw(ids, tfs, 4, DenseThreshold)
	ml := mappedCopy(t, l, nil)
	if !ml.HasTFs() {
		t.Fatalf("list lost its TF flag")
	}
	var m TFMask
	m.Set(5) // 1 is not a survivor
	bc := NewBoundCursor(ml, nil)
	skipped := bc.SkipNonSurvivors(&m)
	if skipped != 500 {
		t.Fatalf("skipped %d, want 500", skipped)
	}
	if ml.residentAt(0) {
		t.Fatalf("all-ones block materialized during TF dismissal")
	}
	if bc.DocID() != 1<<16 || bc.TF() != 5 {
		t.Fatalf("landed on %d/%d", bc.DocID(), bc.TF())
	}
}

func TestMappedSkipNonSurvivorsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		l := mixedList(rng, rng.Intn(5000)+1, 1<<17, true, 4)
		ml := mappedCopy(t, l, nil)
		var m TFMask
		for tf := uint32(0); tf < 10; tf++ {
			if rng.Intn(2) == 0 {
				m.Set(tf)
			}
		}
		var stH, stM Stats
		ch := NewBoundCursor(l, &stH)
		cm := NewBoundCursor(ml, &stM)
		for !ch.Exhausted() {
			sh := ch.SkipNonSurvivors(&m)
			sm := cm.SkipNonSurvivors(&m)
			if sh != sm {
				t.Fatalf("trial %d: skip runs differ: %d != %d", trial, sh, sm)
			}
			if ch.Exhausted() != cm.Exhausted() {
				t.Fatalf("trial %d: exhaustion differs", trial)
			}
			if ch.Exhausted() {
				break
			}
			if ch.DocID() != cm.DocID() || ch.TF() != cm.TF() {
				t.Fatalf("trial %d: position differs", trial)
			}
			ch.Next()
			cm.Next()
		}
		if stH != stM {
			t.Fatalf("trial %d: charges differ: %+v != %+v", trial, stH, stM)
		}
	}
}

func TestMappedBlockCacheEvicts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// TF columns force decoded (charged) payloads.
	l := mixedList(rng, 20000, 1<<19, true, 0)
	cache := NewBlockCache(512) // tiny: constant eviction
	ml := mappedCopy(t, l, cache)
	for ml.BlockStats().TFBlocks == 0 {
		// Ensure at least one block carries a real TF column.
		l = mixedList(rng, 20000, 1<<19, true, 0)
		ml = mappedCopy(t, l, cache)
	}
	assertListsEqual(t, l, ml)
	st := cache.Stats()
	if st.Insertions == 0 {
		t.Fatalf("no decoded blocks were charged")
	}
	if st.Evictions == 0 {
		t.Fatalf("tiny budget never evicted")
	}
	if st.Used > 512*2 {
		t.Fatalf("cache used %d over budget", st.Used)
	}
	// A second full walk after evictions must still be correct.
	assertListsEqual(t, l, ml)
}

func TestMappedBlockCorruptionPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := mixedList(rng, 2000, 1<<17, true, 4)
	metas, dir, encoded := encodeBlocks(t, l)
	payload := append([]byte(nil), encoded...)
	payload[len(payload)/2] ^= 0x40
	ml, err := validatedMappedList(metas[0], dir, payload, l.segSize, nil)
	if err != nil {
		t.Fatalf("open rejected directory unexpectedly: %v", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("walking a corrupt payload did not panic")
		}
		if _, ok := r.(*BlockCorruptError); !ok {
			t.Fatalf("panic value %T, want *BlockCorruptError", r)
		}
	}()
	ml.ForEach(func(d, tf uint32) {})
}

func TestMappedDirectoryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := mixedList(rng, 3000, 1<<17, true, 4)
	metas, encDir, payload := encodeBlocks(t, l)
	meta := metas[0]
	// Every single-byte corruption of the directory must either be
	// rejected at open, or yield a list that still walks without
	// violating memory safety and panics on payload mismatch. The strict
	// check: flipping structural fields (offsets, lengths, counts, bases,
	// encodings) is caught by open-time validation or the per-block CRC.
	for off := 0; off < len(encDir); off++ {
		dir := append([]byte(nil), encDir...)
		dir[off] ^= 0xff
		ml, err := validatedMappedList(meta, dir, payload, l.segSize, nil)
		if err != nil {
			continue // rejected at open: good
		}
		func() {
			defer func() { recover() }() // CRC panic: good
			ok := true
			ml.ForEach(func(d, tf uint32) { ok = ok && true })
			_ = ok
		}()
	}
	// Sanity: unmodified directory still opens.
	if _, err := validatedMappedList(meta, encDir, payload, l.segSize, nil); err != nil {
		t.Fatalf("clean directory rejected: %v", err)
	}
}

func TestMappedEncoderPicksEncodings(t *testing.T) {
	// Dense chunk: > DenseThreshold keys in one range.
	denseIDs := make([]uint32, 5000)
	for i := range denseIDs {
		denseIDs[i] = uint32(i * 13)
	}
	dense := mappedCopy(t, newListRaw(denseIDs, nil, 0, DenseThreshold), nil)
	bs := dense.BlockStats()
	if bs.DenseRaw != 1 || bs.SparseRaw+bs.SparsePacked != 0 {
		t.Fatalf("dense stats %+v", bs)
	}
	// Tight gaps: packed wins.
	tight := make([]uint32, DenseThreshold)
	for i := range tight {
		tight[i] = uint32(i)
	}
	packed := mappedCopy(t, newListRaw(tight[:DenseThreshold-1], nil, 0, DenseThreshold), nil)
	if s := packed.BlockStats(); s.SparsePacked != 1 {
		t.Fatalf("tight-gap stats %+v", s)
	}
	// Huge gaps: raw wins (3-byte varint gaps vs 2-byte raw keys).
	wide := []uint32{0, 20000, 50000, 65000}
	raw := mappedCopy(t, newListRaw(wide, nil, 0, DenseThreshold), nil)
	if s := raw.BlockStats(); s.SparseRaw != 1 {
		t.Fatalf("wide-gap stats %+v", s)
	}
}

func TestMappedBytesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		l := mixedList(rng, rng.Intn(4000)+1, 1<<17, trial%2 == 0, 0)
		ml := mappedCopy(t, l, nil)
		if ml.Bytes() <= 0 {
			t.Fatalf("mapped Bytes() = %d", ml.Bytes())
		}
		st := ml.BlockStats()
		if st.PayloadBytes <= 0 || st.DirBytes != int64(len(ml.chunks)*BlockDirEntrySize) {
			t.Fatalf("stats %+v", st)
		}
	}
}

func TestNewMappedListRejectsGarbage(t *testing.T) {
	cases := []struct {
		name    string
		meta    MappedListMeta
		dir     []byte
		payload []byte
	}{
		{"empty", MappedListMeta{N: 0, NumBlocks: 0}, nil, nil},
		{"short dir", MappedListMeta{N: 1, NumBlocks: 1}, make([]byte, 10), nil},
		{"count mismatch", MappedListMeta{N: 5, NumBlocks: 1}, func() []byte {
			_, dir, _ := encodeBlocks(t, newListRaw([]uint32{1, 2}, nil, 0, DenseThreshold))
			return dir
		}(), make([]byte, 64)},
	}
	for _, tc := range cases {
		if _, err := validatedMappedList(tc.meta, tc.dir, tc.payload, 0, nil); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

func BenchmarkMappedIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	a := mixedList(rng, 200000, 1<<22, true, 0)
	c := mixedList(rng, 20000, 1<<22, true, 0)
	for _, mode := range []string{"heap", "mapped"} {
		la, lc := a, c
		if mode == "mapped" {
			metas, dir, payload := encodeBlocks(b, a, c)
			ma, mc := metas[0], metas[1]
			var err error
			la, err = validatedMappedList(ma, dir[:ma.NumBlocks*BlockDirEntrySize], payload, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
			lc, err = validatedMappedList(mc, dir[ma.NumBlocks*BlockDirEntrySize:], payload, 0, nil)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("%s", mode), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Intersect([]*List{la, lc}, nil)
			}
		})
	}
}
