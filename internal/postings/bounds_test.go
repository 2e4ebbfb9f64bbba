package postings

import (
	"math/rand"
	"testing"
)

// fakeDocLen gives every doc a deterministic pseudo-length derived from
// its ID, so tests can recompute expected bounds independently.
func fakeDocLen(d uint32) int32 { return int32(7 + (d*2654435761)%500) }

// BuildBounds computes per-container (and list-level) score-bound
// metadata of a heap list, looking document lengths up through docLen:
// the bounds MappedEncoder.EncodeMerged writes for the same postings.
func (l *List) BuildBounds(docLen func(docID uint32) int32) {
	bounds := make([]ChunkBound, len(l.chunks))
	for ci := range l.chunks {
		b := ChunkBound{MinDocLen: int32(^uint32(0) >> 1)}
		n := 0
		visitChunk(l, ci, func(docID, tf uint32) {
			if tf > b.MaxTF {
				b.MaxTF = tf
			}
			if dl := docLen(docID); dl < b.MinDocLen {
				b.MinDocLen = dl
			}
			n++
		})
		if n != int(l.chunks[ci].n) {
			panic("postings: BuildBounds chunk walk out of sync")
		}
		bounds[ci] = b
	}
	l.adoptBounds(bounds)
}

// randomTFList builds a list with explicit TFs over random sorted IDs.
func randomTFList(rng *rand.Rand, n int, max uint32, segSize int) *List {
	ids := randomSortedIDs(rng, n, max)
	b := NewBuilder(segSize)
	for _, id := range ids {
		b.Add(id, uint32(1+rng.Intn(40)))
	}
	return b.Build()
}

func TestBuildBoundsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		// Mix sparse and dense containers: small max keeps everything in
		// one chunk, large max spreads across several; high n within one
		// chunk forces dense bitset storage.
		max := uint32(1+rng.Intn(4)) * chunkSpan
		n := 1 + rng.Intn(9000)
		l := randomTFList(rng, n, max, DefaultSegmentSize)
		l.BuildBounds(fakeDocLen)

		if !l.HasBounds() {
			t.Fatalf("trial %d: HasBounds false after BuildBounds", trial)
		}
		// Brute-force per-container expectation from the Postings dump.
		type agg struct {
			maxTF  uint32
			minLen int32
			seen   bool
		}
		want := map[uint32]*agg{}
		for _, p := range postingsOf(l) {
			base := p.DocID &^ uint32(chunkSpan-1)
			a := want[base]
			if a == nil {
				a = &agg{minLen: 1<<31 - 1}
				want[base] = a
			}
			a.seen = true
			if p.TF > a.maxTF {
				a.maxTF = p.TF
			}
			if dl := fakeDocLen(p.DocID); dl < a.minLen {
				a.minLen = dl
			}
		}
		if got := len(l.chunks); got != len(want) {
			t.Fatalf("trial %d: %d chunks, want %d", trial, got, len(want))
		}
		var listMax uint32
		listMin := int32(1<<31 - 1)
		cur := NewBoundCursor(l, nil)
		for ci := 0; ci < len(l.chunks); ci++ {
			base := cur.ContainerBase()
			cb, ok := cur.ContainerBound()
			if !ok {
				t.Fatalf("trial %d: no bound at container %d", trial, ci)
			}
			a := want[base]
			if a == nil {
				t.Fatalf("trial %d: unexpected container base %d", trial, base)
			}
			if cb != l.bounds[ci] {
				t.Fatalf("trial %d: cursor bound %v != stored bound %v", trial, cb, l.bounds[ci])
			}
			if cb.MaxTF != a.maxTF || cb.MinDocLen != a.minLen {
				t.Fatalf("trial %d container %d: bound (%d,%d), want (%d,%d)",
					trial, ci, cb.MaxTF, cb.MinDocLen, a.maxTF, a.minLen)
			}
			if cb.MaxTF > listMax {
				listMax = cb.MaxTF
			}
			if cb.MinDocLen < listMin {
				listMin = cb.MinDocLen
			}
			if !cur.SkipContainer() {
				break
			}
		}
		if l.MaxTF() != listMax || l.MinDocLen() != listMin {
			t.Fatalf("trial %d: list ceilings (%d,%d), want (%d,%d)",
				trial, l.MaxTF(), l.MinDocLen(), listMax, listMin)
		}
	}
}

func TestBoundCursorWalkMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := randomTFList(rng, 5000, 3*chunkSpan, 8)
	l.BuildBounds(fakeDocLen)
	var want []Posting
	l.ForEach(func(d, tf uint32) { want = append(want, Posting{DocID: d, TF: tf}) })
	c := NewBoundCursor(l, nil)
	for i := 0; !c.Exhausted(); i++ {
		if i >= len(want) {
			t.Fatalf("cursor yields more than %d postings", len(want))
		}
		if c.DocID() != want[i].DocID || c.TF() != want[i].TF {
			t.Fatalf("posting %d: cursor (%d,%d), want (%d,%d)", i, c.DocID(), c.TF(), want[i].DocID, want[i].TF)
		}
		c.Next()
	}
}

// TestBoundCursorNextAtLeastWithBound: a seek lands on the first posting
// ≥ target, and the cursor then reports the bound of that posting's
// container — the pair the pruned scoring loop reads after every seek.
func TestBoundCursorNextAtLeastWithBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	l := randomTFList(rng, 4000, 4*chunkSpan, DefaultSegmentSize)
	l.BuildBounds(fakeDocLen)
	ids := docIDs(l)
	for trial := 0; trial < 300; trial++ {
		target := uint32(rng.Int63n(int64(4*chunkSpan) + 10))
		c := NewBoundCursor(l, &Stats{})
		ok := c.NextAtLeast(target) && !c.Exhausted()
		// Reference: first id ≥ target.
		var wantID uint32
		found := false
		for _, id := range ids {
			if id >= target {
				wantID = id
				found = true
				break
			}
		}
		if ok != found {
			t.Fatalf("target %d: ok=%v, want %v", target, ok, found)
		}
		if !found {
			continue
		}
		if d := c.DocID(); d != wantID {
			t.Fatalf("target %d: landed %d, want %d", target, d, wantID)
		}
		cb, _ := c.ContainerBound()
		if wantBound := l.bounds[findChunkIndex(l, wantID)]; cb != wantBound {
			t.Fatalf("target %d: bound %v, want %v", target, cb, wantBound)
		}
	}
}

// findChunkIndex locates the chunk holding docID (test helper; the
// production path tracks it incrementally).
func findChunkIndex(l *List, docID uint32) int {
	base := docID &^ uint32(chunkSpan-1)
	for ci := range l.chunks {
		if l.chunks[ci].base == base {
			return ci
		}
	}
	return -1
}

func TestSkipContainerChargesSegmentsNotEntries(t *testing.T) {
	// One dense-ish container plus a second one.
	b := NewBuilder(4)
	for d := uint32(0); d < 1000; d++ {
		b.Add(d*3, 1+d%5)
	}
	b.Add(uint32(chunkSpan)+7, 9)
	l := b.Build()
	l.BuildBounds(fakeDocLen)
	var st Stats
	c := NewBoundCursor(l, &st)
	before := st
	if !c.SkipContainer() {
		t.Fatal("SkipContainer: list should have a second container")
	}
	if c.DocID() != uint32(chunkSpan)+7 {
		t.Fatalf("landed on %d, want %d", c.DocID(), chunkSpan+7)
	}
	if st.EntriesScanned != before.EntriesScanned {
		t.Fatalf("SkipContainer scanned %d entries; must scan none", st.EntriesScanned-before.EntriesScanned)
	}
	// 1000 postings were skipped from position 0 in segments of 4.
	if got := st.SegmentsSkipped - before.SegmentsSkipped; got != 250 {
		t.Fatalf("SegmentsSkipped += %d, want 250", got)
	}
	if !c.SkipContainer() && !c.Exhausted() {
		t.Fatal("second SkipContainer should exhaust the list")
	}
}

func TestEncodeDecodeBoundsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		l := randomTFList(rng, 1+rng.Intn(6000), 3*chunkSpan, DefaultSegmentSize)
		l.BuildBounds(fakeDocLen)
		enc := EncodeList(l)
		got, err := DecodeList(enc, l.segSize)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !got.HasBounds() {
			t.Fatalf("trial %d: bounds lost in round trip", trial)
		}
		if len(got.chunks) != len(l.chunks) {
			t.Fatalf("trial %d: chunks %d != %d", trial, len(got.chunks), len(l.chunks))
		}
		for ci := 0; ci < len(l.chunks); ci++ {
			if got.bounds[ci] != l.bounds[ci] {
				t.Fatalf("trial %d container %d: %v != %v", trial, ci, got.bounds[ci], l.bounds[ci])
			}
		}
		if got.MaxTF() != l.MaxTF() || got.MinDocLen() != l.MinDocLen() {
			t.Fatalf("trial %d: list ceilings differ", trial)
		}
	}
}

func TestDecodeListWithoutBoundsStaysBoundless(t *testing.T) {
	l := fromDocIDs([]uint32{1, 5, 9}, 4)
	enc := EncodeList(l)
	got, err := DecodeList(enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasBounds() {
		t.Fatal("bound-less encoding decoded with bounds")
	}
}

func TestDecodeListRejectsUnknownFlagBits(t *testing.T) {
	l := fromDocIDs([]uint32{1, 2, 3}, 4)
	enc := EncodeList(l)
	enc[0] |= 4 // a flag bit this build does not define
	if _, err := DecodeList(enc, 4); err == nil {
		t.Fatal("flag bit 4 accepted")
	}
}

func TestDecodeListRejectsTruncatedBounds(t *testing.T) {
	b := NewBuilder(4)
	b.Add(3, 2)
	b.Add(70000, 5)
	l := b.Build()
	l.BuildBounds(fakeDocLen)
	enc := EncodeList(l)
	for cut := 1; cut < 5; cut++ {
		if _, err := DecodeList(enc[:len(enc)-cut], 4); err == nil {
			t.Fatalf("truncation of %d bytes accepted", cut)
		}
	}
}

func TestBuildBoundsTFLessListUsesImplicitOne(t *testing.T) {
	l := fromDocIDs([]uint32{10, 20, 70000}, 4)
	l.BuildBounds(fakeDocLen)
	if l.MaxTF() != 1 {
		t.Fatalf("TF-less list MaxTF = %d, want 1", l.MaxTF())
	}
	want := fakeDocLen(10)
	if fakeDocLen(20) < want {
		want = fakeDocLen(20)
	}
	if l.bounds[0].MinDocLen != want {
		t.Fatalf("container 0 MinDocLen = %d, want %d", l.bounds[0].MinDocLen, want)
	}
}

// TestSkipNonSurvivorsMatchesReference drives the in-container tf skip
// against a reference walk over the Postings dump: from any position,
// SkipNonSurvivors must dismiss exactly the maximal run of same-container
// postings whose term frequency is outside the mask, land on the first
// survivor (or the next container's first posting), and charge each
// dismissed posting as one scanned entry — never a skipped segment.
func TestSkipNonSurvivorsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		max := uint32(1+rng.Intn(3)) * chunkSpan
		n := 1 + rng.Intn(9000)
		var l *List
		if trial%5 == 4 {
			// All-ones TFs collapse to the implicit-1 representation: a
			// mask without bit 1 must dismiss whole container runs in O(1).
			ids := randomSortedIDs(rng, n, max)
			b := NewBuilder(DefaultSegmentSize)
			for _, id := range ids {
				b.Add(id, 1)
			}
			l = b.Build()
		} else {
			l = randomTFList(rng, n, max, DefaultSegmentSize)
		}
		var ps []Posting
		l.ForEach(func(d, tf uint32) { ps = append(ps, Posting{DocID: d, TF: tf}) })
		var m TFMask
		for tf := uint32(0); tf <= 41; tf++ {
			if rng.Intn(4) == 0 {
				m.Set(tf)
			}
		}
		var st Stats
		c := NewBoundCursor(l, &st)
		i := 0
		for !c.Exhausted() {
			if c.DocID() != ps[i].DocID || c.TF() != ps[i].TF {
				t.Fatalf("trial %d pos %d: cursor (%d,%d), want (%d,%d)",
					trial, i, c.DocID(), c.TF(), ps[i].DocID, ps[i].TF)
			}
			before := st.EntriesScanned
			skipped := c.SkipNonSurvivors(&m)
			base := ps[i].DocID &^ uint32(chunkSpan-1)
			j := i
			for j < len(ps) && ps[j].DocID&^uint32(chunkSpan-1) == base && !m.has(ps[j].TF) {
				j++
			}
			if skipped != j-i {
				t.Fatalf("trial %d pos %d: skipped %d postings, want %d", trial, i, skipped, j-i)
			}
			if st.EntriesScanned-before != int64(skipped) {
				t.Fatalf("trial %d pos %d: charged %d entries for %d dismissals",
					trial, i, st.EntriesScanned-before, skipped)
			}
			i = j
			if i == len(ps) {
				if !c.Exhausted() {
					t.Fatalf("trial %d: cursor not exhausted after final skip", trial)
				}
				break
			}
			if c.Exhausted() || c.DocID() != ps[i].DocID || c.TF() != ps[i].TF {
				t.Fatalf("trial %d pos %d: landed on (%d,%d), want (%d,%d)",
					trial, i, c.DocID(), c.TF(), ps[i].DocID, ps[i].TF)
			}
			// Step over the landing posting with a plain Next so the walk
			// repositions from every cursor state, dense and sparse alike.
			c.Next()
			i++
		}
		if i != len(ps) {
			t.Fatalf("trial %d: walk covered %d of %d postings", trial, i, len(ps))
		}
		if st.SegmentsSkipped != 0 {
			t.Fatalf("trial %d: tf dismissals charged %d skipped segments", trial, st.SegmentsSkipped)
		}
	}
}

// TestTFMaskRange pins the conservative edges: frequencies at or above
// 256 are always survivors, Set outside the range is a no-op, and Clear
// empties everything below it.
func TestTFMaskRange(t *testing.T) {
	var m TFMask
	if m.has(0) || m.has(255) {
		t.Fatal("empty mask reports survivors below 256")
	}
	if !m.has(256) || !m.has(1<<20) {
		t.Fatal("tf ≥ 256 must always survive")
	}
	m.Set(0)
	m.Set(255)
	m.Set(300) // ignored, already implicit
	if !m.has(0) || !m.has(255) {
		t.Fatal("Set bits not visible")
	}
	m.Clear()
	if m.has(0) || m.has(255) {
		t.Fatal("Clear left bits set")
	}
}
