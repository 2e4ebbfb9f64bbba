// Package postings implements the inverted-list substrate of the system:
// postings sorted by document ID, adaptive array/bitset containers, merge
// and galloping intersection, and the aggregation operators (γ_count,
// γ_sum) that context-sensitive ranking layers on top.
//
// Lists are stored in adaptive containers (see container.go): each 2^16
// range of docIDs is a sorted uint16 array when sparse and a bitset when
// dense, with TFs in a parallel array that predicate-shaped lists (TF = 1
// everywhere) drop entirely.
//
// The cost accounting still follows §3.2.1 of the paper: lists are
// *accounted* in segments of M0 entries, an intersection touches a segment
// only when its docid range overlaps the other list's current position,
// so cost(L_i ∩ L_j) = M0·(N_i^o + N_j^o) ≤ |L_i| + |L_j|. Every operation
// reports its cost through a Stats accumulator so the analytical claims of
// the paper (Proposition 3.1, Theorem 4.2) are observable in tests and
// benchmarks; bitset work is reported in entry-equivalents plus a separate
// BitmapWords tally.
package postings

import (
	"math"
	"sync/atomic"
)

// DefaultSegmentSize is the default number of postings per skip segment
// (M0 in the paper's cost model). 128 matches common practice in text
// search systems (e.g. Lucene's skip interval).
const DefaultSegmentSize = 128

// Posting is one entry of an inverted list: a document ID and the term's
// occurrence count in that document.
type Posting struct {
	DocID uint32
	TF    uint32
}

// List is an immutable inverted list: docIDs strictly ascending, stored in
// adaptive chunk containers, with term frequencies in a parallel array in
// element order. A nil TF array means TF = 1 for every document — the
// shape of a predicate-field list. Build lists with NewList or a
// Builder; format-v4 files open lists in mapped form (see mapped.go),
// where chunk payloads stay on disk until first touched.
type List struct {
	chunks []chunk
	// offsets[i] is the global element index of chunk i's first document;
	// offsets[len(chunks)] == n.
	offsets []int
	tfs     []uint32 // nil ⇒ TF = 1 everywhere (heap lists only)
	n       int
	segSize int
	// bounds holds per-container score-bound metadata (parallel to
	// chunks; nil when never built), with the list-level ceilings cached
	// in maxTF/minLen. See bounds.go.
	bounds []ChunkBound
	maxTF  uint32
	minLen int32
	// src is non-nil for mapped lists: chunk payloads (and chunk-local
	// TF columns) materialize lazily from the on-disk block layout.
	src *mappedSource
}

// chunkPayload is one chunk's resident payload: exactly one of
// keys/bits is non-nil, and tfs is the chunk-local TF column (nil ⇒
// TF = 1 for every posting of the chunk). A quarantined payload is the
// permanent empty stand-in for a corrupt mapped block: no keys, an
// all-zero bitset for dense encodings, so every kernel reads the
// container as empty (see mapped.go).
type chunkPayload struct {
	keys        []uint16
	bits        []uint64
	tfs         []uint32
	quarantined bool
	// cached marks a payload charged to a BlockCache (decoded, weight
	// > 0), set before publication. Only cached payloads pay the
	// reference-bit write and hit count on the materialize fast path;
	// zero-copy aliases and quarantined stand-ins skip both.
	cached bool
	// accessed is the cache's S3-FIFO reference bit: set on a slot hit,
	// read and cleared by the evictor deciding promotion.
	accessed atomic.Uint32
}

// payloadQ returns chunk ci's payload views and whether the chunk is a
// quarantined stand-in, for callers that account quarantine skips
// against their Stats. Heap chunks answer with field reads (the TF view
// is a subslice of the global array); mapped chunks materialize the
// block on first touch — decoding it, or aliasing the mapping directly
// for raw encodings — and memoize the result. Mapped materialization
// verifies the block's CRC; with a Quarantine registry armed a corrupt
// block is served as a permanently empty container (quarantine),
// otherwise the *BlockCorruptError panic escapes and the engine's
// worker recovery turns it into a query error.
func (l *List) payloadQ(ci int) (keys []uint16, bits []uint64, tfs []uint32, quarantined bool) {
	if l.src == nil {
		ch := &l.chunks[ci]
		if l.tfs != nil {
			tfs = l.tfs[l.offsets[ci]:l.offsets[ci+1]]
		}
		return ch.keys, ch.bits, tfs, false
	}
	p := l.src.materialize(l, ci)
	return p.keys, p.bits, p.tfs, p.quarantined
}

// blockHasTFs reports whether chunk ci stores explicit TFs, without
// materializing it. Blocks whose TFs are all 1 are stored TF-less even
// in lists that carry TFs elsewhere.
func (l *List) blockHasTFs(ci int) bool {
	if l.src == nil {
		return l.tfs != nil
	}
	return l.src.blockTFLen(ci) > 0
}

// residentAt reports whether chunk ci's payload is resident — always
// for heap chunks, only after materialization for mapped ones. The
// pruned path uses it to count containers dismissed without ever
// decoding their blocks.
func (l *List) residentAt(ci int) bool {
	if l.src == nil {
		return true
	}
	return l.src.mat[ci].Load() != nil
}

// newListRaw builds a list from strictly ascending ids (not validated) and
// an optional parallel TF slice; an all-ones TF slice is dropped.
func newListRaw(ids []uint32, tfs []uint32, segSize, threshold int) *List {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	if tfs != nil && allOnes(tfs) {
		tfs = nil
	}
	l := &List{tfs: tfs, n: len(ids), segSize: segSize}
	l.chunks, l.offsets = buildChunks(ids, threshold)
	return l
}

func allOnes(tfs []uint32) bool {
	for _, tf := range tfs {
		if tf != 1 {
			return false
		}
	}
	return true
}

// NewList constructs a list from postings that must already be sorted by
// strictly ascending DocID. segSize ≤ 0 selects DefaultSegmentSize.
// NewList panics if the postings are not strictly ascending, because a
// mis-sorted list corrupts every downstream intersection silently.
func NewList(ps []Posting, segSize int) *List {
	ids := make([]uint32, len(ps))
	tfs := make([]uint32, len(ps))
	for i, p := range ps {
		if i > 0 && p.DocID <= ps[i-1].DocID {
			panic("postings: NewList requires strictly ascending DocIDs")
		}
		ids[i] = p.DocID
		tfs[i] = p.TF
	}
	return newListRaw(ids, tfs, segSize, DenseThreshold)
}

// Len returns the number of postings in the list (|L| in the paper).
func (l *List) Len() int { return l.n }

// HasTFs reports whether the list stores explicit term frequencies; lists
// without them (predicate lists) have TF = 1 for every document.
func (l *List) HasTFs() bool {
	if l.src != nil {
		return l.src.hasTFs
	}
	return l.tfs != nil
}

// tfOf reads a chunk-local TF view: nil means TF = 1.
func tfOf(tfs []uint32, r int) uint32 {
	if tfs == nil {
		return 1
	}
	return tfs[r]
}

// ForEach calls fn for every posting in ascending DocID order. It is the
// streaming accessor: no slice is materialized (mapped chunks
// materialize one block at a time).
func (l *List) ForEach(fn func(docID, tf uint32)) {
	for ci := range l.chunks {
		visitChunk(l, ci, fn)
	}
}

// SumTF returns Σ tf over the list — tc(w, D) for a whole collection.
// Mapped lists answer from the value persisted in the file's table of
// contents, never touching a block.
func (l *List) SumTF() int64 {
	if l.src != nil {
		return l.src.sumTF
	}
	if l.tfs == nil {
		return int64(l.n)
	}
	var sum int64
	for _, tf := range l.tfs {
		sum += int64(tf)
	}
	return sum
}

// Bytes returns the decoded payload footprint of the list: container
// storage (2 B per sparse key, 8 KiB per dense chunk) plus the TF
// columns. Dense predicate chunks undercut the seed's 8 B/posting
// whenever a chunk holds more than DenseThreshold documents. For mapped
// lists this is the footprint the list *would* occupy fully decoded,
// computed from resident metadata — the actual resident bytes are
// whatever blocks have materialized. On-disk footprints come from
// DiskBytes.
func (l *List) Bytes() int64 {
	var total int64
	for i := range l.chunks {
		if l.chunks[i].dense() {
			total += chunkWords * 8
		} else {
			total += int64(l.chunks[i].n) * 2
		}
		if l.src != nil && l.blockHasTFs(i) {
			total += int64(l.chunks[i].n) * 4
		}
	}
	return total + int64(len(l.tfs))*4
}

// Containers reports how many of the list's chunks use each
// representation.
func (l *List) Containers() (sparse, dense int) {
	for i := range l.chunks {
		if l.chunks[i].dense() {
			dense++
		} else {
			sparse++
		}
	}
	return sparse, dense
}

// Builder accumulates postings during indexing. DocIDs must be appended in
// ascending order; repeated appends for the same DocID accumulate TF, which
// is what a token-at-a-time indexer produces.
type Builder struct {
	ids     []uint32
	tfs     []uint32
	segSize int
}

// NewBuilder returns a Builder with the given segment size (≤ 0 selects
// DefaultSegmentSize).
func NewBuilder(segSize int) *Builder {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	return &Builder{segSize: segSize}
}

// Add records tf occurrences of the term in docID. docID must be ≥ the last
// added DocID. Accumulated TFs saturate at MaxUint32 instead of wrapping,
// so a pathological document cannot turn a huge term count into a tiny one.
func (b *Builder) Add(docID uint32, tf uint32) {
	n := len(b.ids)
	if n > 0 && b.ids[n-1] == docID {
		if s := uint64(b.tfs[n-1]) + uint64(tf); s > math.MaxUint32 {
			b.tfs[n-1] = math.MaxUint32
		} else {
			b.tfs[n-1] = uint32(s)
		}
		return
	}
	if n > 0 && b.ids[n-1] > docID {
		panic("postings: Builder.Add requires ascending DocIDs")
	}
	b.ids = append(b.ids, docID)
	b.tfs = append(b.tfs, tf)
}

// Len returns the number of postings added so far.
func (b *Builder) Len() int { return len(b.ids) }

// Append moves o's postings after b's — the concatenation of two
// builders over consecutive DocID ranges. o's first DocID must exceed
// b's last; o must not be used afterwards.
func (b *Builder) Append(o *Builder) {
	if len(o.ids) == 0 {
		return
	}
	if n := len(b.ids); n > 0 && b.ids[n-1] >= o.ids[0] {
		panic("postings: Builder.Append requires ascending DocIDs")
	}
	b.ids = append(b.ids, o.ids...)
	b.tfs = append(b.tfs, o.tfs...)
	o.ids, o.tfs = nil, nil
}
