package postings

import "math/bits"

// Adaptive containers: every list is partitioned into fixed ranges of 2^16
// document IDs, and each populated range (a "chunk") is stored either as a
// sorted array of 16-bit keys (sparse) or as a 1024-word bitset (dense),
// chosen by cardinality at build time. The layout is roaring-style but
// purpose-built for this system's two list shapes: keyword lists carry one
// parallel TF array in global element order, predicate lists drop TFs
// entirely (TF = 1 is implicit). Dense chunks make count-only
// intersections — the γ_count work that dominates the paper's cost model —
// a word-AND plus popcount instead of a merge.
//
// Since format v4 a chunk is either *heap-resident* (keys or bits
// populated, as built by buildChunks) or *mapped* (keys and bits nil;
// the payload lives in an on-disk block reached through the list's
// mappedSource and is materialized on demand). Every kernel below asks
// for a chunk's payload through List.payload, which is a field read for
// heap chunks and a lazy decode for mapped ones; chunk-level metadata
// (base, n, representation) is always resident, so alignment, skipping
// and routing decisions never touch the payload.
const (
	chunkBits  = 16
	chunkSpan  = 1 << chunkBits // docIDs covered by one chunk
	chunkWords = chunkSpan / 64 // bitset words of a dense chunk
	// DenseThreshold is the chunk cardinality at which the sorted-array
	// representation gives way to the bitset. 4096 keys × 2 B equals the
	// bitset's 8 KiB, so a dense chunk is never larger than the array it
	// replaces.
	DenseThreshold = 4096
)

// chunk holds the documents of one 2^16-wide docID range. Heap chunks
// store the payload inline in exactly one of the two representations;
// mapped chunks store only metadata plus the block encoding tag.
type chunk struct {
	base uint32 // first docID of the range (low 16 bits zero)
	n    int32
	enc  uint8    // block encoding (mapped lists); heap chunks leave it 0
	keys []uint16 // sparse: sorted low-16-bit keys; nil when dense or mapped
	bits []uint64 // dense: chunkWords-word bitset; nil when sparse or mapped
}

// dense reports the chunk's representation. For mapped chunks the
// answer comes from the encoding tag, so it never requires the payload.
func (c *chunk) dense() bool { return c.bits != nil || c.enc == BlockDenseRaw }

// bitsHas reports whether the bitset contains the low-16-bit key lo.
func bitsHas(b []uint64, lo uint32) bool {
	return b[lo>>6]&(1<<(lo&63)) != 0
}

// bitsFirstFrom returns the position of the first set bit ≥ from in the
// bitset, or -1 when none remains.
func bitsFirstFrom(b []uint64, from int) int {
	w := from >> 6
	if w >= chunkWords {
		return -1
	}
	x := b[w] & (^uint64(0) << uint(from&63))
	for x == 0 {
		w++
		if w == chunkWords {
			return -1
		}
		x = b[w]
	}
	return w<<6 + bits.TrailingZeros64(x)
}

// bitsSelectFrom returns the position of the n-th set bit (n ≥ 1)
// strictly after position bit in the bitset. The caller guarantees it
// exists.
func bitsSelectFrom(b []uint64, bit, n int) int {
	w := bit >> 6
	x := b[w] & (^uint64(0) << (uint(bit&63) + 1))
	for {
		if p := bits.OnesCount64(x); p >= n {
			for ; n > 1; n-- {
				x &= x - 1
			}
			return w<<6 + bits.TrailingZeros64(x)
		} else {
			n -= p
		}
		w++
		x = b[w]
	}
}

// bitsPopRange counts the set bits of the bitset in [from, to).
func bitsPopRange(b []uint64, from, to int) int {
	if from >= to {
		return 0
	}
	fw, tw := from>>6, to>>6
	fm := ^uint64(0) << uint(from&63)
	if fw == tw {
		return bits.OnesCount64(b[fw] & fm & ((1 << uint(to&63)) - 1))
	}
	n := bits.OnesCount64(b[fw] & fm)
	for w := fw + 1; w < tw; w++ {
		n += bits.OnesCount64(b[w])
	}
	if tw < chunkWords {
		n += bits.OnesCount64(b[tw] & ((1 << uint(to&63)) - 1))
	}
	return n
}

// segments returns the chunk's size in skip segments of the M0 cost model,
// rounded up; used to account chunk skips in SegmentsSkipped terms.
func (c *chunk) segments(segSize int) int64 {
	return int64((int(c.n) + segSize - 1) / segSize)
}

// buildChunks partitions strictly ascending ids into chunks, choosing the
// representation of each by cardinality against threshold.
func buildChunks(ids []uint32, threshold int) (chunks []chunk, offsets []int) {
	offsets = append(offsets, 0)
	for i := 0; i < len(ids); {
		base := ids[i] &^ (chunkSpan - 1)
		j := i + 1
		for j < len(ids) && ids[j]&^uint32(chunkSpan-1) == base {
			j++
		}
		c := chunk{base: base, n: int32(j - i)}
		if j-i >= threshold {
			c.bits = make([]uint64, chunkWords)
			for _, id := range ids[i:j] {
				lo := id & (chunkSpan - 1)
				c.bits[lo>>6] |= 1 << (lo & 63)
			}
		} else {
			c.keys = make([]uint16, j-i)
			for t, id := range ids[i:j] {
				c.keys[t] = uint16(id)
			}
		}
		chunks = append(chunks, c)
		offsets = append(offsets, j)
		i = j
	}
	return chunks, offsets
}

// gallopSearch16 returns the smallest index ≥ from with keys[i] ≥ target,
// or len(keys). It probes exponentially from the current position before
// binary-searching the bracketed range, so seeking d elements ahead costs
// O(log d) — the galloping scheme for skewed intersections.
func gallopSearch16(keys []uint16, from int, target uint16) int {
	if from >= len(keys) || keys[from] >= target {
		return from
	}
	bound := 1
	for from+bound < len(keys) && keys[from+bound] < target {
		bound <<= 1
	}
	lo := from + bound>>1 + 1
	hi := from + bound
	if hi > len(keys) {
		hi = len(keys)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// visitConjunction is the count-only k-way conjunction kernel over chunked
// lists: it never materializes DocID or TF slices. All lists must be
// non-nil and non-empty and len(lists) ≥ 2. When visit is non-nil it is
// called once per matching docID in ascending order. Returns the number of
// matches; a non-nil into additionally collects them (whole AND-ed words
// at a time over all-dense ranges). A non-nil canceler is polled once per
// chunk range — 2^16 docIDs of work per poll keeps the kernel
// branch-cheap — and stops the conjunction early when it fires (the
// caller reports the cause).
//
// The kernel synchronizes the lists chunk range by chunk range. When every
// list's chunk for a common range is dense, the range is resolved by
// word-AND + popcount; otherwise the smallest chunk drives and the others
// are probed (O(1) bit tests into bitsets, galloping forward seeks into
// arrays). Chunk alignment and skipping read only resident metadata;
// mapped payloads materialize when a common range is actually resolved.
// Cost accounting: skipped chunks charge SegmentsSkipped in M0-model
// segments; bitset work charges EntriesScanned in entry-equivalents (one
// 64-doc word ≈ one entry probe) and is also tallied separately in
// Stats.BitmapWords.
func visitConjunction(lists []*List, st *Stats, cc *canceler, visit func(docID uint32), into *ContextSet) int64 {
	k := len(lists)
	cis := make([]int, k)       // per-list chunk index
	aps := make([]int, k)       // per-list in-chunk array pointer, reset per range
	keys := make([][]uint16, k) // per-list resident payload for the common range
	words := make([][]uint64, k)
	var count int64
align:
	for {
		if cc.halted() {
			return count
		}
		// Establish the largest current chunk base; any exhausted list ends
		// the conjunction.
		var base uint32
		for i, l := range lists {
			if cis[i] == len(l.chunks) {
				return count
			}
			if b := l.chunks[cis[i]].base; b > base {
				base = b
			}
		}
		// Advance every list to that base, charging skipped chunks.
		for i, l := range lists {
			for cis[i] < len(l.chunks) && l.chunks[cis[i]].base < base {
				st.addSkipped(l.chunks[cis[i]].segments(l.segSize))
				cis[i]++
			}
			if cis[i] == len(l.chunks) {
				return count
			}
			if l.chunks[cis[i]].base > base {
				continue align // overshot: realign on the larger base
			}
		}
		// All lists hold a chunk for [base, base+chunkSpan).
		allDense := true
		minIdx := 0
		for i, l := range lists {
			if !l.chunks[cis[i]].dense() {
				allDense = false
			}
			if l.chunks[cis[i]].n < lists[minIdx].chunks[cis[minIdx]].n {
				minIdx = i
			}
		}
		for i, l := range lists {
			var quarantined bool
			keys[i], words[i], _, quarantined = l.payloadQ(cis[i])
			if quarantined {
				st.addQuarantineSkip()
			}
		}
		if allDense {
			count += andChunks(words, base, visit, into.denseChunk(base))
			st.addBitmapWords(int64(k) * chunkWords)
			st.addEntries(int64(k) * chunkWords)
		} else {
			count += probeChunks(lists, cis, aps, keys, words, minIdx, base, st, visit, into)
		}
		for i := range cis {
			cis[i]++
		}
	}
}

// andChunks resolves one all-dense chunk range by word-AND; with visit nil
// matches are only popcounted. A non-nil into (all-zero on entry)
// receives the AND-ed words.
func andChunks(words [][]uint64, base uint32, visit func(uint32), into []uint64) int64 {
	var count int64
	for w := 0; w < chunkWords; w++ {
		x := words[0][w]
		for i := 1; i < len(words) && x != 0; i++ {
			x &= words[i][w]
		}
		if x == 0 {
			continue
		}
		if into != nil {
			into[w] = x
		}
		if visit == nil {
			count += int64(bits.OnesCount64(x))
			continue
		}
		for x != 0 {
			visit(base | uint32(w<<6|bits.TrailingZeros64(x)))
			x &= x - 1
			count++
		}
	}
	return count
}

// probeChunks resolves one mixed chunk range: the smallest chunk (minIdx)
// drives, and every driver element is probed in the other chunks.
func probeChunks(lists []*List, cis, aps []int, keys [][]uint16, words [][]uint64, minIdx int, base uint32, st *Stats, visit func(uint32), into *ContextSet) int64 {
	for i := range aps {
		aps[i] = 0
	}
	var count int64
	probe := func(lo uint16) bool {
		for i := range lists {
			if i == minIdx {
				continue
			}
			if words[i] != nil {
				st.addBitmapWords(1)
				st.addEntries(1)
				if !bitsHas(words[i], uint32(lo)) {
					return false
				}
				continue
			}
			p := gallopSearch16(keys[i], aps[i], lo)
			st.addEntries(int64(p - aps[i]))
			aps[i] = p
			if p == len(keys[i]) || keys[i][p] != lo {
				return false
			}
		}
		return true
	}
	match := func(lo uint16) {
		count++
		if visit != nil {
			visit(base | uint32(lo))
		}
		if into != nil {
			into.add(base | uint32(lo))
		}
	}
	st.addEntries(int64(lists[minIdx].chunks[cis[minIdx]].n))
	if words[minIdx] != nil {
		for w := 0; w < chunkWords; w++ {
			x := words[minIdx][w]
			for x != 0 {
				lo := uint16(w<<6 | bits.TrailingZeros64(x))
				x &= x - 1
				if probe(lo) {
					match(lo)
				}
			}
		}
		return count
	}
	for _, lo := range keys[minIdx] {
		if probe(lo) {
			match(lo)
		}
	}
	return count
}
