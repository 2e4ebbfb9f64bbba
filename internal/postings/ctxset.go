package postings

import (
	"context"
	"math/bits"
	"sync"
)

// ContextSet is the materialized context of the Figure 3 plan: D_P
// restricted to one index, built once per query and probed by everything
// that used to re-run the predicate conjunction — each keyword's df/tc
// (CountTFSum) and the scoring phase's predicate filter (Preds).
//
// The set is a TF-less List whose chunks are bitset blocks, one per
// 2^16-docID range the context touches, filled as a by-product of the
// CountSum pass that enumerates the context anyway. A one-term context is
// its own set: the predicate list is adopted as it is, whatever its
// containers. Being a List, the set walks under the same cursors and
// kernels as any predicate list; being at most as long as the shortest
// predicate list, it never makes a conjunction dearer.
//
// Blocks and the set itself are pooled: a query costs no allocation for
// its set after warm-up, and at most N/8 bytes are checked out per
// in-flight query. Pooled blocks are all-zero; Release clears only the
// words a query dirtied.
type ContextSet struct {
	// preds[0] is the set: the adopted predicate list, or &own, whose
	// chunks' bits are the pooled blocks.
	preds [1]*List
	own   List
	// dirty[i] is the word range of own.chunks[i]'s block the fill wrote.
	dirty []wordSpan
	// cur is the block being filled (the last chunk's, nil before the
	// first document), curBase its chunk base and last the low 16 bits of
	// the newest document in it; sealChunk turns them into chunk metadata.
	cur        *[chunkWords]uint64
	curBase    uint32
	last       uint32
	count, sum int64
}

type wordSpan struct{ from, to int }

var (
	contextSetPool = sync.Pool{New: func() any { return new(ContextSet) }}
	setBlockPool   = sync.Pool{New: func() any { return new([chunkWords]uint64) }}
)

// NewContextSet materializes ∩ preds and computes |D_P| and len(D_P) over
// it in the same pass (lens is the per-document length column). The Stats
// charges and the ctx polls are CountSumCtx's — it is that pass. A nil or
// empty predicate list yields the empty set. On cancellation the set is
// released and ctx's error returned. The caller must Release the set once
// no cursor or kernel reads it any more.
func NewContextSet(ctx context.Context, preds []*List, lens []int32, st *Stats) (*ContextSet, error) {
	s := contextSetPool.Get().(*ContextSet)
	s.preds[0] = &s.own
	s.own.segSize = DefaultSegmentSize
	if len(preds) == 1 && preds[0] != nil {
		s.preds[0] = preds[0]
	} else if len(preds) > 1 && preds[0] != nil {
		s.own.segSize = preds[0].segSize
	}
	var err error
	s.count, s.sum, err = countSum(ctx, preds, func(d uint32) int64 { return int64(lens[d]) }, st, s)
	s.sealChunk()
	s.own.offsets = append(s.own.offsets, s.own.n)
	if err != nil {
		s.Release()
		return nil, err
	}
	return s, nil
}

// add records docID d; calls arrive in ascending order. It runs once per
// context document, so it only sets the bit (and stays small enough to
// inline): sizes and dirty ranges are derived when the chunk is sealed.
func (s *ContextSet) add(d uint32) {
	lo := d & (chunkSpan - 1)
	if s.cur == nil || d-lo != s.curBase {
		s.openChunk(d-lo, int(lo>>6))
	}
	s.cur[lo>>6] |= 1 << (lo & 63)
	s.last = lo
}

// denseChunk starts the chunk based at base as a whole block for the
// caller to write AND-ed words into, and returns it (nil from a nil set,
// so conjunctions that collect nothing pass it straight through).
func (s *ContextSet) denseChunk(base uint32) []uint64 {
	if s == nil {
		return nil
	}
	s.openChunk(base, 0)
	s.last = chunkSpan - 1
	return s.cur[:]
}

// openChunk seals the chunk being filled and starts the one based at
// base, whose first document falls in word w.
func (s *ContextSet) openChunk(base uint32, w int) {
	s.sealChunk()
	s.cur, s.curBase = setBlockPool.Get().(*[chunkWords]uint64), base
	s.dirty = append(s.dirty, wordSpan{from: w})
	s.own.chunks = append(s.own.chunks, chunk{base: base, bits: s.cur[:]})
	s.own.offsets = append(s.own.offsets, s.own.n)
}

// sealChunk completes the metadata of the chunk being filled, if any. A
// dense chunk whose AND came out empty is dropped, not published: no
// chunk of a List is empty, and cursors rely on it.
func (s *ContextSet) sealChunk() {
	if s.cur == nil {
		return
	}
	i := len(s.dirty) - 1
	s.dirty[i].to = int(s.last >> 6)
	n := 0
	for _, x := range s.cur[s.dirty[i].from : s.dirty[i].to+1] {
		n += bits.OnesCount64(x)
	}
	if n == 0 {
		setBlockPool.Put(s.cur) // never written: still all-zero
		s.own.chunks[i] = chunk{}
		s.own.chunks = s.own.chunks[:i]
		s.own.offsets = s.own.offsets[:i]
		s.dirty = s.dirty[:i]
	} else {
		s.own.chunks[i].n = int32(n)
		s.own.n += n
	}
	s.cur = nil
}

// Release returns the set's storage to the pools. The set, and the list
// Preds returned unless it is an adopted predicate list, must not be
// used afterwards. Releasing a nil set is a no-op.
func (s *ContextSet) Release() {
	if s == nil {
		return
	}
	for i, ch := range s.own.chunks {
		clear(ch.bits[s.dirty[i].from : s.dirty[i].to+1])
		setBlockPool.Put((*[chunkWords]uint64)(ch.bits))
	}
	clear(s.own.chunks)
	*s = ContextSet{
		own:   List{chunks: s.own.chunks[:0], offsets: s.own.offsets[:0]},
		dirty: s.dirty[:0],
	}
	contextSetPool.Put(s)
}

// Count returns |D_P| over this index.
func (s *ContextSet) Count() int64 { return s.count }

// Sum returns len(D_P) over this index.
func (s *ContextSet) Sum() int64 { return s.sum }

// Preds returns the set as the one-element predicate-list slice the
// conjunction kernels and cursors take in place of the query's predicate
// lists: conjoining with it selects exactly the documents that
// conjoining with all of them does.
func (s *ContextSet) Preds() []*List { return s.preds[:] }

// CountTFSum computes df(w, D_P) and tc(w, D_P) for the keyword list l
// against the set. The two lists are aligned chunk range by chunk range;
// within a common range the smaller side drives and every element of it
// is tested in the other — a bit test into a bitset, a forward galloping
// seek into an array — so a tiny context probes a long keyword list
// instead of the list being walked, and a rare keyword is walked against
// a large context's bitset. Charges follow the count-only conjunction
// kernel: skipped chunks in M0 segments, the driving chunk's entries, one
// entry-equivalent (and one BitmapWords) per bit test, the galloped
// distance per array probe, and df AggregatedEntries. ctx is polled once
// per chunk range; on cancellation the partial aggregates are returned
// with ctx's error.
func (s *ContextSet) CountTFSum(ctx context.Context, l *List, st *Stats) (df, tc int64, err error) {
	set := s.preds[0]
	if l == nil || l.Len() == 0 || set.Len() == 0 {
		return 0, 0, nil
	}
	st.addIntersection()
	cc := newCanceler(ctx)
	var k tfProbe
	for li, si := 0, 0; li < len(l.chunks) && si < len(set.chunks) && !cc.halted(); {
		lc, sc := &l.chunks[li], &set.chunks[si]
		if lc.base < sc.base {
			st.addSkipped(lc.segments(l.segSize))
			li++
			continue
		}
		if lc.base > sc.base {
			st.addSkipped(sc.segments(set.segSize))
			si++
			continue
		}
		lk, lb, tfs, lq := l.payloadQ(li)
		sk, sb, _, sq := set.payloadQ(si)
		if lq {
			st.addQuarantineSkip()
		}
		if sq {
			st.addQuarantineSkip()
		}
		if lc.n <= sc.n {
			k.probeInto(sk, sb, tfs, true)
			k.drive(lk, lb, int(lc.n))
		} else {
			k.probeInto(lk, lb, tfs, false)
			k.drive(sk, sb, int(sc.n))
		}
		li++
		si++
	}
	st.addEntries(k.entries + k.words)
	st.addBitmapWords(k.words)
	st.addAggregated(k.df)
	return k.df, k.tc, cc.cause()
}

// tfProbe accumulates df and tc over the chunk ranges of one
// ContextSet.CountTFSum call. Per range one chunk drives and the other
// (keys or bits) is probed for each of its elements in ascending order.
type tfProbe struct {
	keys []uint16
	bits []uint64
	// tfs is the keyword chunk's TF column (nil ⇒ TF = 1), indexed by the
	// driver's element rank when the keyword chunk drives (tfByRank) and
	// by the probe's landing index pos when the set does.
	tfs      []uint32
	tfByRank bool
	// pos is the index of the last probed key among the probed chunk's
	// elements: an array chunk's gallop pointer, or the number of set
	// bits below position at of a bitset (maintained only when a TF
	// column must be read through it).
	pos, at int

	df, tc int64
	// entries counts driver elements and galloped distance, words the bit
	// tests.
	entries, words int64
}

// probeInto starts a chunk range with (keys, bs) as the probed side.
func (k *tfProbe) probeInto(keys []uint16, bs []uint64, tfs []uint32, tfByRank bool) {
	k.keys, k.bits, k.tfs, k.tfByRank = keys, bs, tfs, tfByRank
	k.pos, k.at = 0, 0
}

// drive tests every element of the driving chunk (n of them, as keys or
// as bits) in the probed chunk.
func (k *tfProbe) drive(keys []uint16, bs []uint64, n int) {
	k.entries += int64(n)
	if bs == nil {
		for r, lo := range keys {
			k.step(lo, r)
		}
		return
	}
	r := 0
	for w, x := range bs {
		for ; x != 0; x &= x - 1 {
			k.step(uint16(w<<6|bits.TrailingZeros64(x)), r)
			r++
		}
	}
}

// step probes for the driver's r-th element lo and folds a hit into df
// and tc.
func (k *tfProbe) step(lo uint16, r int) {
	if k.bits != nil {
		k.words++
		if !bitsHas(k.bits, uint32(lo)) {
			return
		}
		if k.tfs != nil && !k.tfByRank {
			k.pos += bitsPopRange(k.bits, k.at, int(lo))
			k.at = int(lo)
		}
	} else {
		p := gallopSearch16(k.keys, k.pos, lo)
		k.entries += int64(p - k.pos)
		k.pos = p
		if p == len(k.keys) || k.keys[p] != lo {
			return
		}
	}
	k.df++
	switch {
	case k.tfs == nil:
		k.tc++
	case k.tfByRank:
		k.tc += int64(k.tfs[r])
	default:
		k.tc += int64(k.tfs[k.pos])
	}
}
