package postings

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"
	"unsafe"
)

// Format-v4 block layout: the on-disk, mmap-friendly representation of
// the adaptive containers. Every chunk of a list becomes one *block*
// with a fixed-width directory entry (metadata, encoding tag, the PR 5
// score bound, a CRC) and a payload placed in a shared byte region:
//
//	directory entry (BlockDirEntrySize = 40 bytes, little-endian):
//	  0:4   base       first docID of the container range
//	  4:8   n          posting count (1 .. 65536)
//	  8:16  off        payload offset of the docID bytes
//	  16:20 idLen      docID payload length
//	  20:24 tfLen      TF payload length (0 ⇒ TF = 1 for the block)
//	  24:28 crc        CRC32-C over payload[off : off+idLen+tfLen]
//	  28:32 maxTF      block score bound (see bounds.go)
//	  32:36 minDocLen  block score bound
//	  36    enc        block encoding
//	  37:40 zero
//
// Raw encodings (sparse key arrays, dense bitsets) are written 8-byte
// aligned so a little-endian reader materializes them as zero-copy
// slices of the mapping — "readable in place". Sparse blocks whose
// delta+varint form is smaller are stored packed instead; dense bitsets
// always stay raw. A block's TF column is uvarint-coded and elided
// entirely when every TF in the block is 1 (predicate lists therefore
// store no TF bytes at all). The directory is eagerly validated and
// checksummed at open; payload bytes are verified per block, at
// materialization time, so opening an index never touches them.
const (
	// BlockSparseRaw stores n little-endian uint16 keys (zero-copy).
	BlockSparseRaw uint8 = 0
	// BlockDenseRaw stores the 1024-word bitset little-endian (zero-copy).
	BlockDenseRaw uint8 = 1
	// BlockSparsePacked stores the keys delta+uvarint coded (first key
	// stored +1, then gaps ≥ 1).
	BlockSparsePacked uint8 = 2

	// BlockDirEntrySize is the fixed width of one directory entry.
	BlockDirEntrySize = 40
)

var mappedCRC = crc32.MakeTable(crc32.Castagnoli)

// nativeLittleEndian gates the zero-copy materialization path; on a
// big-endian host every raw block is copy-decoded instead, which is
// slower but bit-identical.
var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// BlockCorruptError reports a mapped block whose payload failed its CRC
// or structural validation at materialization time. On the query path
// the block is *quarantined* instead of failing the process: the source
// memoizes a permanent empty payload for the block, the query skips the
// container rank-safely (exactly as pruning's SkipContainer would have)
// and reports the skip through Stats.QuarantineSkips, which the engine
// surfaces as a degraded execution. The error type still escapes by
// panic from paths that decode without a quarantining source (offline
// strict decoding) so Index verification and tests can detect raw
// corruption.
type BlockCorruptError struct{ Detail string }

func (e *BlockCorruptError) Error() string {
	return "postings: mapped block corrupt: " + e.Detail
}

// Quarantine is the corrupt-block blacklist shared by every mapped list
// of one index: a cumulative counter for operator surfaces (/healthz,
// /statsz, fsck tooling). The per-block blacklist itself lives in each
// source's materialization slots — a quarantined block's empty payload
// is memoized outside the block cache budget, so it is never evicted
// and never re-decoded.
type Quarantine struct {
	blocks atomic.Int64
}

func (q *Quarantine) record() {
	if q == nil {
		return
	}
	q.blocks.Add(1)
}

// Blocks returns how many distinct blocks have been quarantined.
func (q *Quarantine) Blocks() int64 {
	if q == nil {
		return 0
	}
	return q.blocks.Load()
}

// MappedListMeta is the per-list record a format-v4 table of contents
// keeps: everything the reader needs to reconstruct the list shell
// without touching a payload byte.
type MappedListMeta struct {
	N          int
	SumTF      int64
	HasTFs     bool
	HasBounds  bool
	FirstBlock int // index of the list's first directory entry
	NumBlocks  int
}

// MappedEncoder accumulates the block payload region and directory for
// a set of lists, in the order EncodeList is called.
type MappedEncoder struct {
	payload []byte
	dir     []byte
	blocks  int
	scratch []byte
}

// Payload returns the accumulated payload region.
func (e *MappedEncoder) Payload() []byte { return e.payload }

// Dir returns the accumulated directory (blocks × BlockDirEntrySize).
func (e *MappedEncoder) Dir() []byte { return e.dir }

func (e *MappedEncoder) align8() {
	for len(e.payload)%8 != 0 {
		e.payload = append(e.payload, 0)
	}
}

func (e *MappedEncoder) putUvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.payload = append(e.payload, tmp[:n]...)
}

// EncodeList appends every chunk of l as one block and returns the
// list's TOC record. Raw sparse/dense payloads are 8-aligned for
// in-place reads; sparse chunks whose packed form is strictly smaller
// are packed; a block's TF column is dropped when all its TFs are 1.
func (e *MappedEncoder) EncodeList(l *List) MappedListMeta {
	meta := MappedListMeta{
		N:          l.Len(),
		SumTF:      l.SumTF(),
		HasTFs:     l.HasTFs(),
		HasBounds:  l.HasBounds(),
		FirstBlock: e.blocks,
		NumBlocks:  len(l.chunks),
	}
	for ci := range l.chunks {
		ch := &l.chunks[ci]
		keys, bs, tfs := l.payload(ci)
		var enc uint8
		var idOff int
		if bs != nil {
			e.align8()
			enc = BlockDenseRaw
			idOff = len(e.payload)
			var tmp [8]byte
			for _, w := range bs {
				binary.LittleEndian.PutUint64(tmp[:], w)
				e.payload = append(e.payload, tmp[:]...)
			}
		} else {
			packed := packKeys16(e.scratch[:0], keys)
			if len(packed) < 2*len(keys) {
				enc = BlockSparsePacked
				idOff = len(e.payload)
				e.payload = append(e.payload, packed...)
			} else {
				e.align8()
				enc = BlockSparseRaw
				idOff = len(e.payload)
				var tmp [2]byte
				for _, k := range keys {
					binary.LittleEndian.PutUint16(tmp[:], k)
					e.payload = append(e.payload, tmp[:]...)
				}
			}
			e.scratch = packed[:0]
		}
		idLen := len(e.payload) - idOff
		tfStart := len(e.payload)
		if tfs != nil && !allOnes(tfs) {
			for _, tf := range tfs {
				e.putUvarint(uint64(tf))
			}
		}
		tfLen := len(e.payload) - tfStart
		var bound ChunkBound
		if l.bounds != nil {
			bound = l.bounds[ci]
		}
		var ent [BlockDirEntrySize]byte
		binary.LittleEndian.PutUint32(ent[0:4], ch.base)
		binary.LittleEndian.PutUint32(ent[4:8], uint32(ch.n))
		binary.LittleEndian.PutUint64(ent[8:16], uint64(idOff))
		binary.LittleEndian.PutUint32(ent[16:20], uint32(idLen))
		binary.LittleEndian.PutUint32(ent[20:24], uint32(tfLen))
		binary.LittleEndian.PutUint32(ent[24:28], crc32.Checksum(e.payload[idOff:idOff+idLen+tfLen], mappedCRC))
		binary.LittleEndian.PutUint32(ent[28:32], bound.MaxTF)
		binary.LittleEndian.PutUint32(ent[32:36], uint32(bound.MinDocLen))
		ent[36] = enc
		e.dir = append(e.dir, ent[:]...)
		e.blocks++
	}
	return meta
}

// packKeys16 appends the delta+uvarint coding of sorted keys to dst.
func packKeys16(dst []byte, keys []uint16) []byte {
	var tmp [binary.MaxVarintLen64]byte
	prev := uint32(0)
	for i, k := range keys {
		v := uint64(uint32(k) - prev)
		if i == 0 {
			v = uint64(k) + 1
		}
		prev = uint32(k)
		n := binary.PutUvarint(tmp[:], v)
		dst = append(dst, tmp[:n]...)
	}
	return dst
}

// dirEntry is one decoded directory record.
type dirEntry struct {
	base  uint32
	n     int32
	off   uint64
	idLen uint32
	tfLen uint32
	crc   uint32
	bound ChunkBound
	enc   uint8
}

func decodeDirEntry(b []byte) dirEntry {
	return dirEntry{
		base:  binary.LittleEndian.Uint32(b[0:4]),
		n:     int32(binary.LittleEndian.Uint32(b[4:8])),
		off:   binary.LittleEndian.Uint64(b[8:16]),
		idLen: binary.LittleEndian.Uint32(b[16:20]),
		tfLen: binary.LittleEndian.Uint32(b[20:24]),
		crc:   binary.LittleEndian.Uint32(b[24:28]),
		bound: ChunkBound{
			MaxTF:     binary.LittleEndian.Uint32(b[28:32]),
			MinDocLen: int32(binary.LittleEndian.Uint32(b[32:36])),
		},
		enc: b[36],
	}
}

// mappedSource is a mapped list's connection to the on-disk blocks: the
// list's directory slice, the shared payload region, and one lazily
// filled payload slot per chunk.
type mappedSource struct {
	dir     []byte // NumBlocks × BlockDirEntrySize, this list only
	payload []byte // whole payload region (offsets are absolute)
	cache   *BlockCache
	hasTFs  bool
	sumTF   int64
	mat     []atomic.Pointer[chunkPayload]
	// quar is the index-wide corrupt-block registry (nil ⇒ strict mode:
	// corruption panics a *BlockCorruptError instead of quarantining).
	quar *Quarantine
}

func (s *mappedSource) entry(ci int) dirEntry {
	return decodeDirEntry(s.dir[ci*BlockDirEntrySize:])
}

func (s *mappedSource) blockTFLen(ci int) uint32 {
	return binary.LittleEndian.Uint32(s.dir[ci*BlockDirEntrySize+20:])
}

// materialize returns chunk ci's payload, decoding (or zero-copy
// aliasing) the block on first touch. Concurrent callers may decode the
// same block; one wins the CAS and the duplicates are garbage. A cache
// eviction clears the slot, after which the next touch decodes again.
//
// A block whose payload fails validation is quarantined when the source
// carries a Quarantine registry: the slot memoizes a permanent empty
// payload flagged quarantined — never inserted into the cache, so never
// evicted and never re-decoded — and the container reads as empty from
// then on. A bitflip costs one container, not the process. Without a
// registry the *BlockCorruptError panic escapes as before (strict mode,
// used by offline verification).
func (s *mappedSource) materialize(l *List, ci int) *chunkPayload {
	if p := s.mat[ci].Load(); p != nil {
		if p.cached {
			// Scan-resistance bookkeeping for cache-charged blocks: mark
			// the block re-touched (checked-then-set, so a hot block costs
			// one read, not a contended write, per touch) and count the
			// hit. Zero-copy and quarantined payloads are memoized outside
			// the cache and skip both.
			if p.accessed.Load() == 0 {
				p.accessed.Store(1)
			}
			s.cache.noteHit()
		}
		return p
	}
	p, weight, corrupt := s.decodeBlockSafe(l, ci)
	if corrupt != nil {
		p, weight = quarantinedPayload(l.chunks[ci].enc), 0
		if s.mat[ci].CompareAndSwap(nil, p) {
			// First discoverer records; CAS losers saw another copy (the
			// same bytes are corrupt for every decoder) and must not
			// double-count the block.
			s.quar.record()
			return p
		}
		if q := s.mat[ci].Load(); q != nil {
			return q
		}
		return p
	}
	p.cached = weight > 0 && s.cache != nil
	if s.mat[ci].CompareAndSwap(nil, p) {
		if p.cached {
			s.cache.insert(&s.mat[ci], weight)
		}
		return p
	}
	if q := s.mat[ci].Load(); q != nil {
		return q
	}
	// Lost the CAS but the winner was already evicted: our copy serves.
	return p
}

// decodeBlockSafe is decodeBlock with the corruption panic converted to
// a value when the source quarantines; any other panic (and corruption
// in strict mode) propagates.
func (s *mappedSource) decodeBlockSafe(l *List, ci int) (p *chunkPayload, weight int64, corrupt *BlockCorruptError) {
	if s.quar == nil {
		p, weight = s.decodeBlock(l, ci)
		return p, weight, nil
	}
	defer func() {
		if r := recover(); r != nil {
			be, ok := r.(*BlockCorruptError)
			if !ok {
				panic(r)
			}
			p, weight, corrupt = nil, 0, be
		}
	}()
	p, weight = s.decodeBlock(l, ci)
	return p, weight, nil
}

// zeroChunkBits is the shared all-zero bitset quarantined dense blocks
// alias: full chunkWords length, so the word-AND kernels index it like
// any dense payload, with every bit off. Read-only by contract.
var zeroChunkBits [chunkWords]uint64

// quarantinedPayload builds the permanent empty payload of a
// quarantined block, shaped after the block's declared encoding so every
// consumer branch (dense word loops, sparse key walks) reads it safely.
func quarantinedPayload(enc uint8) *chunkPayload {
	p := &chunkPayload{quarantined: true}
	if enc == BlockDenseRaw {
		p.bits = zeroChunkBits[:]
	}
	return p
}

// SetQuarantine arms corrupt-block quarantine on a mapped list, sharing
// the given registry (one per index). Heap lists ignore it. Must be
// called before the list serves queries.
func (l *List) SetQuarantine(q *Quarantine) {
	if l.src != nil {
		l.src.quar = q
	}
}

// decodeBlock verifies and decodes block ci. weight is the decoded heap
// footprint in bytes; zero-copy blocks weigh nothing and are memoized
// outside the cache budget (they are slice headers into the mapping).
func (s *mappedSource) decodeBlock(l *List, ci int) (p *chunkPayload, weight int64) {
	ent := s.entry(ci)
	blob := s.payload[ent.off : ent.off+uint64(ent.idLen)+uint64(ent.tfLen)]
	if got := crc32.Checksum(blob, mappedCRC); got != ent.crc {
		panic(&BlockCorruptError{Detail: fmt.Sprintf("block at payload offset %d: checksum mismatch 0x%08x != 0x%08x", ent.off, got, ent.crc)})
	}
	idBytes := blob[:ent.idLen]
	n := int(ent.n)
	p = &chunkPayload{}
	switch ent.enc {
	case BlockDenseRaw:
		if w, ok := aliasU64(idBytes, chunkWords); ok {
			p.bits = w
		} else {
			w := make([]uint64, chunkWords)
			for i := range w {
				w[i] = binary.LittleEndian.Uint64(idBytes[i*8:])
			}
			p.bits = w
			weight += chunkWords * 8
		}
	case BlockSparseRaw:
		if k, ok := aliasU16(idBytes, n); ok {
			p.keys = k
		} else {
			k := make([]uint16, n)
			for i := range k {
				k[i] = binary.LittleEndian.Uint16(idBytes[i*2:])
			}
			p.keys = k
			weight += int64(n) * 2
		}
	case BlockSparsePacked:
		p.keys = unpackKeys16(idBytes, n, ent.off)
		weight += int64(n) * 2
	default:
		panic(&BlockCorruptError{Detail: fmt.Sprintf("block at payload offset %d: unknown encoding %d", ent.off, ent.enc)})
	}
	if ent.tfLen > 0 {
		tfBytes := blob[ent.idLen:]
		tfs := make([]uint32, n)
		for i := 0; i < n; i++ {
			v, c := binary.Uvarint(tfBytes)
			if c <= 0 || v > 1<<32-1 {
				panic(&BlockCorruptError{Detail: fmt.Sprintf("block at payload offset %d: corrupt tf %d", ent.off, i)})
			}
			tfBytes = tfBytes[c:]
			tfs[i] = uint32(v)
		}
		if len(tfBytes) != 0 {
			panic(&BlockCorruptError{Detail: fmt.Sprintf("block at payload offset %d: %d trailing tf bytes", ent.off, len(tfBytes))})
		}
		p.tfs = tfs
		weight += int64(n) * 4
	}
	return p, weight
}

// unpackKeys16 decodes a delta+uvarint key block, validating strict
// ascent, range and exact consumption.
func unpackKeys16(b []byte, n int, off uint64) []uint16 {
	keys := make([]uint16, n)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		v, c := binary.Uvarint(b)
		if c <= 0 || v == 0 {
			panic(&BlockCorruptError{Detail: fmt.Sprintf("block at payload offset %d: corrupt key gap %d", off, i)})
		}
		b = b[c:]
		k := prev + v
		if i == 0 {
			k = v - 1
		}
		if k >= chunkSpan {
			panic(&BlockCorruptError{Detail: fmt.Sprintf("block at payload offset %d: key %d out of range", off, i)})
		}
		keys[i] = uint16(k)
		prev = k
	}
	if len(b) != 0 {
		panic(&BlockCorruptError{Detail: fmt.Sprintf("block at payload offset %d: %d trailing key bytes", off, len(b))})
	}
	return keys
}

// aliasU16 reinterprets b as n uint16s without copying when the host is
// little-endian and the data is aligned.
func aliasU16(b []byte, n int) ([]uint16, bool) {
	if !nativeLittleEndian || len(b) != n*2 || n == 0 {
		return nil, false
	}
	ptr := unsafe.Pointer(&b[0])
	if uintptr(ptr)%2 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint16)(ptr), n), true
}

// aliasU64 reinterprets b as n uint64s without copying when the host is
// little-endian and the data is aligned.
func aliasU64(b []byte, n int) ([]uint64, bool) {
	if !nativeLittleEndian || len(b) != n*8 || n == 0 {
		return nil, false
	}
	ptr := unsafe.Pointer(&b[0])
	if uintptr(ptr)%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint64)(ptr), n), true
}

// ValidateMappedList checks a mapped list's directory against its TOC
// record and the payload region, allocating nothing: every block's base,
// count, encoding, lengths and payload range, and the posting total.
// dir must be the list's own directory slice (meta.NumBlocks entries)
// and payload the whole region its offsets index. The directory is
// untrusted; an index runs this on every term at open, so a corrupt
// directory fails the open. Payload bytes are validated per block at
// materialization.
func ValidateMappedList(meta MappedListMeta, dir, payload []byte) error {
	if meta.NumBlocks <= 0 || meta.N <= 0 {
		return fmt.Errorf("postings: mapped list with %d blocks, %d postings", meta.NumBlocks, meta.N)
	}
	if len(dir) != meta.NumBlocks*BlockDirEntrySize {
		return fmt.Errorf("postings: mapped list directory is %d bytes, want %d", len(dir), meta.NumBlocks*BlockDirEntrySize)
	}
	total := 0
	prevBase := int64(-1)
	for ci := 0; ci < meta.NumBlocks; ci++ {
		ent := decodeDirEntry(dir[ci*BlockDirEntrySize:])
		if ent.base&(chunkSpan-1) != 0 || int64(ent.base) <= prevBase {
			return fmt.Errorf("postings: mapped block %d has base %d (prev %d): directory corrupt", ci, ent.base, prevBase)
		}
		prevBase = int64(ent.base)
		if ent.n < 1 || ent.n > chunkSpan {
			return fmt.Errorf("postings: mapped block %d claims %d postings: directory corrupt", ci, ent.n)
		}
		need := uint64(ent.idLen) + uint64(ent.tfLen)
		if ent.off > uint64(len(payload)) || need > uint64(len(payload))-ent.off {
			return fmt.Errorf("postings: mapped block %d payload [%d, +%d) outside region of %d bytes", ci, ent.off, need, len(payload))
		}
		n := int(ent.n)
		switch ent.enc {
		case BlockSparseRaw:
			if int(ent.idLen) != 2*n {
				return fmt.Errorf("postings: mapped block %d: raw sparse length %d for %d keys", ci, ent.idLen, n)
			}
		case BlockDenseRaw:
			if int(ent.idLen) != chunkWords*8 {
				return fmt.Errorf("postings: mapped block %d: raw dense length %d", ci, ent.idLen)
			}
		case BlockSparsePacked:
			if int(ent.idLen) < n || int(ent.idLen) > 3*n {
				return fmt.Errorf("postings: mapped block %d: packed length %d for %d keys", ci, ent.idLen, n)
			}
		default:
			return fmt.Errorf("postings: mapped block %d: unknown encoding %d", ci, ent.enc)
		}
		if ent.tfLen != 0 && (int(ent.tfLen) < n || int(ent.tfLen) > 5*n) {
			return fmt.Errorf("postings: mapped block %d: tf length %d for %d postings", ci, ent.tfLen, n)
		}
		if ent.tfLen != 0 && !meta.HasTFs {
			return fmt.Errorf("postings: mapped block %d carries TFs in a TF-less list", ci)
		}
		total += n
	}
	if total != meta.N {
		return fmt.Errorf("postings: mapped list blocks hold %d postings, TOC says %d", total, meta.N)
	}
	return nil
}

// NewMappedList builds the resident shell of a mapped list: chunk
// metadata, offsets, and score bounds come from the directory; payloads
// stay on disk until a kernel touches them. The arguments must be ones
// ValidateMappedList accepted; the shell is then built without a check
// that could fail.
func NewMappedList(meta MappedListMeta, dir, payload []byte, segSize int, cache *BlockCache) *List {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	l := &List{
		chunks:  make([]chunk, meta.NumBlocks),
		offsets: make([]int, meta.NumBlocks+1),
		n:       meta.N,
		segSize: segSize,
	}
	var bounds []ChunkBound
	if meta.HasBounds {
		bounds = make([]ChunkBound, meta.NumBlocks)
	}
	for ci := 0; ci < meta.NumBlocks; ci++ {
		ent := decodeDirEntry(dir[ci*BlockDirEntrySize:])
		l.chunks[ci] = chunk{base: ent.base, n: ent.n, enc: ent.enc}
		l.offsets[ci+1] = l.offsets[ci] + int(ent.n)
		if bounds != nil {
			bounds[ci] = ent.bound
		}
	}
	l.src = &mappedSource{
		dir:     dir,
		payload: payload,
		cache:   cache,
		hasTFs:  meta.HasTFs,
		sumTF:   meta.SumTF,
		mat:     make([]atomic.Pointer[chunkPayload], meta.NumBlocks),
	}
	if bounds != nil {
		l.adoptBounds(bounds)
	}
	return l
}

// BlockStats summarizes a list's format-v4 block layout: encoding mix
// and on-disk footprint. For mapped lists it reads the directory; for
// heap lists it measures what EncodeList would write, so build-time
// tooling can report disk footprints without producing a file.
type BlockStats struct {
	SparseRaw    int // blocks stored as raw key arrays
	DenseRaw     int // blocks stored as raw bitsets
	SparsePacked int // blocks stored delta+varint packed
	TFBlocks     int // blocks carrying an explicit TF column
	PayloadBytes int64
	DirBytes     int64
}

func (s *BlockStats) add(o BlockStats) {
	s.SparseRaw += o.SparseRaw
	s.DenseRaw += o.DenseRaw
	s.SparsePacked += o.SparsePacked
	s.TFBlocks += o.TFBlocks
	s.PayloadBytes += o.PayloadBytes
	s.DirBytes += o.DirBytes
}

// AddTo accumulates o into s (exported face for the index layer).
func (s *BlockStats) AddTo(o BlockStats) { s.add(o) }

// BlockStats reports the list's v4 block layout.
func (l *List) BlockStats() BlockStats {
	var bs BlockStats
	if l.src != nil {
		for ci := range l.chunks {
			ent := l.src.entry(ci)
			bs.tally(ent.enc, int64(ent.idLen)+int64(ent.tfLen), ent.tfLen > 0)
		}
		return bs
	}
	var e MappedEncoder
	e.EncodeList(l)
	for ci := range l.chunks {
		ent := decodeDirEntry(e.dir[ci*BlockDirEntrySize:])
		bs.tally(ent.enc, int64(ent.idLen)+int64(ent.tfLen), ent.tfLen > 0)
	}
	return bs
}

func (s *BlockStats) tally(enc uint8, payloadBytes int64, hasTF bool) {
	switch enc {
	case BlockSparseRaw:
		s.SparseRaw++
	case BlockDenseRaw:
		s.DenseRaw++
	case BlockSparsePacked:
		s.SparsePacked++
	}
	if hasTF {
		s.TFBlocks++
	}
	s.PayloadBytes += payloadBytes
	s.DirBytes += BlockDirEntrySize
}
