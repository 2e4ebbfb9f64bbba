package postings

import "math/bits"

// Per-container score-bound metadata for block-max dynamic pruning. Each
// 2^16-docID chunk of a keyword list records the largest term frequency
// and the smallest document length among its postings; every built-in
// ranking formula is monotone nondecreasing in tf and nonincreasing in
// len(d), so (MaxTF, MinDocLen) suffice to compute a score upper bound
// for every document the container can contain. The list-level ceiling
// (max over chunks / min over chunks) orders lists for MaxScore-style
// essential/non-essential splits.
//
// Bounds are computed as a list is written (MappedEncoder.EncodeMerged,
// over the field's document lengths) and kept in its blocks' directory
// entries. A list without bounds simply disables pruning for queries
// touching it — correctness never depends on the metadata being
// present.

// ContainerSpan is the docID width of one adaptive container (2^16): the
// granularity at which bound metadata is kept and at which the pruned
// scoring loop can skip work wholesale.
const ContainerSpan = chunkSpan

// ChunkBound is the score-bound metadata of one container: the largest
// term frequency and the smallest document length among its postings.
type ChunkBound struct {
	MaxTF     uint32
	MinDocLen int32
}

// visitChunk calls fn for every (docID, tf) of chunk ci in ascending
// docID order and reports whether the chunk is a quarantined (empty)
// stand-in.
func visitChunk(l *List, ci int, fn func(docID, tf uint32)) (quarantined bool) {
	base := l.chunks[ci].base
	keys, bs, tfs, quarantined := l.payloadQ(ci)
	if bs != nil {
		r := 0
		for w := 0; w < chunkWords; w++ {
			x := bs[w]
			for x != 0 {
				fn(base|uint32(w<<6|bits.TrailingZeros64(x)), tfOf(tfs, r))
				x &= x - 1
				r++
			}
		}
		return quarantined
	}
	for r, key := range keys {
		fn(base|uint32(key), tfOf(tfs, r))
	}
	return quarantined
}

// adoptBounds installs a per-chunk bound slice (len must equal the chunk
// count) and derives the list-level ceilings.
func (l *List) adoptBounds(bounds []ChunkBound) {
	l.bounds = bounds
	l.maxTF = 0
	l.minLen = 0
	first := true
	for _, b := range bounds {
		if b.MaxTF > l.maxTF {
			l.maxTF = b.MaxTF
		}
		if first || b.MinDocLen < l.minLen {
			l.minLen = b.MinDocLen
		}
		first = false
	}
}

// HasBounds reports whether the list carries score-bound metadata.
func (l *List) HasBounds() bool { return l.bounds != nil }

// MaxTF returns the list-level term-frequency ceiling (0 when the list
// has no bounds or no postings).
func (l *List) MaxTF() uint32 { return l.maxTF }

// MinDocLen returns the list-level document-length floor (0 when the
// list has no bounds or no postings).
func (l *List) MinDocLen() int32 { return l.minLen }

// BoundCursor is the pruning-aware cursor over a list with (optional)
// score-bound metadata. It is the exported face of the internal cursor:
// the same M0 cost accounting (Seeks, SegmentsSkipped, EntriesScanned),
// plus access to the current container's bound and the ability to skip
// the rest of a container wholesale when its bound proves no document in
// it can rank.
type BoundCursor struct {
	c cursor
}

// NewBoundCursor positions a cursor on the first posting of l. st may be
// nil (no cost accounting).
func NewBoundCursor(l *List, st *Stats) *BoundCursor {
	b := &BoundCursor{}
	b.c.init(l, st)
	return b
}

// Exhausted reports whether the cursor has run off the end of the list.
func (b *BoundCursor) Exhausted() bool { return b.c.exhausted() }

// DocID returns the current posting's document ID (undefined when
// exhausted).
func (b *BoundCursor) DocID() uint32 { return b.c.docID() }

// TF returns the current posting's term frequency.
func (b *BoundCursor) TF() uint32 { return b.c.tf() }

// Next advances by one posting, charging one scanned entry.
func (b *BoundCursor) Next() { b.c.next() }

// NextAtLeast advances to the first posting with DocID ≥ target and
// reports whether one exists, with the M0 model's seek charge.
func (b *BoundCursor) NextAtLeast(target uint32) bool { return b.c.seek(target) }

// ContainerBase returns the first docID of the current container's range
// (undefined when exhausted).
func (b *BoundCursor) ContainerBase() uint32 { return b.c.l.chunks[b.c.ci].base }

// ContainerBound returns the current container's score-bound metadata.
// ok is false when the cursor is exhausted or the list carries no bounds.
func (b *BoundCursor) ContainerBound() (bound ChunkBound, ok bool) {
	if b.c.exhausted() || b.c.l.bounds == nil {
		return ChunkBound{}, false
	}
	return b.c.l.bounds[b.c.ci], true
}

// TFMask is a survivor set over term frequencies 0..255 for
// SkipNonSurvivors: bit tf set means a posting with that term frequency
// might still beat the caller's score threshold. Frequencies ≥ 256 are
// always treated as survivors, so a mask only ever errs on the side of
// not skipping.
type TFMask struct {
	bits [4]uint64
}

// Set marks tf as a survivor (tf ≥ 256 is implicit and ignored).
func (m *TFMask) Set(tf uint32) {
	if tf < 256 {
		m.bits[tf>>6] |= 1 << (tf & 63)
	}
}

// Clear empties the mask.
func (m *TFMask) Clear() { m.bits = [4]uint64{} }

func (m *TFMask) has(tf uint32) bool {
	return tf >= 256 || m.bits[tf>>6]&(1<<(tf&63)) != 0
}

// SkipNonSurvivors advances the cursor past the run of consecutive
// postings, starting at the current one, whose term frequencies are not
// in the survivor mask. It stops on the first survivor or, when the run
// reaches the end of the current container, on the first posting of the
// next one, and returns the number of postings skipped. This is the
// block-internal counterpart of SkipContainer: the per-posting work is
// one tf-array read instead of a full cursor step, so a pruned scoring
// loop can dismiss the bulk of a surviving container at memory-scan
// speed. Dismissed postings charge scanned entries — their term
// frequencies were examined — never skipped segments. A list without a
// tf array has implicit tf 1 everywhere: the whole container run is
// dismissed in O(1) when the mask excludes 1.
func (b *BoundCursor) SkipNonSurvivors(m *TFMask) int {
	c := &b.c
	if c.exhausted() {
		return 0
	}
	l := c.l
	end := l.offsets[c.ci+1]
	if !l.blockHasTFs(c.ci) {
		// TF = 1 for the whole block — the list drops TF storage, or this
		// mapped block elided an all-ones TF column. Either the mask keeps
		// 1 (nothing to skip) or the entire remaining run is dismissed in
		// O(1), without materializing a mapped block.
		if m.has(1) {
			return 0
		}
		n := end - c.gpos
		c.st.addEntries(int64(n))
		c.enterChunk(c.ci + 1)
		return n
	}
	if c.pending {
		c.resolve()
	}
	off := l.offsets[c.ci]
	g := c.gpos
	for g < end && !m.has(c.tfs[g-off]) {
		g++
	}
	n := g - c.gpos
	if n == 0 {
		return 0
	}
	c.st.addEntries(int64(n))
	if g == end {
		c.enterChunk(c.ci + 1)
		return n
	}
	base := l.chunks[c.ci].base
	if c.bits != nil {
		c.bit = bitsSelectFrom(c.bits, c.bit, n)
		c.rank += n
		c.cur = base | uint32(c.bit)
	} else {
		c.ki += n
		c.cur = base | uint32(c.keys[c.ki])
	}
	c.gpos = g
	return n
}

// ContainerResident reports whether the current container's payload is
// resident in memory: always for a heap list, only after
// materialization for a mapped block. The pruned path reads it before
// SkipContainer to count containers dismissed without ever decoding
// their on-disk blocks.
func (b *BoundCursor) ContainerResident() bool {
	if b.c.exhausted() {
		return true
	}
	return b.c.l.residentAt(b.c.ci)
}

// SkipContainer jumps over the remainder of the current container —
// every unread posting in it — and lands on the first posting of the
// next one, reporting whether the list still has postings. The skipped
// postings charge SegmentsSkipped in M0-model segments (never scanned
// entries): the §3.2.1 accounting for work a skip structure avoided.
func (b *BoundCursor) SkipContainer() bool {
	if b.c.exhausted() {
		return false
	}
	remaining := b.c.l.offsets[b.c.ci+1] - b.c.gpos
	if remaining > 0 {
		seg := b.c.l.segSize
		b.c.st.addSkipped(int64((remaining + seg - 1) / seg))
	}
	b.c.enterChunk(b.c.ci + 1)
	return !b.c.exhausted()
}
