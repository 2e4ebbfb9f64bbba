package postings

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
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
// corruption, and MappedEncoder returns it when a block it copies or
// re-encodes fails: a rewrite never turns a corrupt block into a valid
// one.
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

// MappedListMeta is the per-list record of a mapped index's dictionary:
// everything the reader needs to reconstruct the list shell without
// touching a payload byte. The counts are int32 — a list holds fewer
// than 2^31 postings and an index fewer than 2^31 blocks — so the
// record is MappedListMetaSize bytes on disk (format v5; a v4 table of
// contents gob-codes it as it codes int).
type MappedListMeta struct {
	SumTF      int64
	N          int32
	FirstBlock int32 // index of the list's first directory entry
	NumBlocks  int32
	HasTFs     bool
	HasBounds  bool
}

// MappedListMetaSize is the width of one MappedListMeta record,
// little-endian:
//
//	0:8   SumTF
//	8:12  N
//	12:16 FirstBlock
//	16:20 NumBlocks
//	20    flags: bit 0 HasTFs, bit 1 HasBounds
//	21:24 zero
const MappedListMetaSize = 24

const (
	metaHasTFs    = 1 << 0
	metaHasBounds = 1 << 1
)

// AppendRecord appends m's MappedListMetaSize-byte record to b.
func (m MappedListMeta) AppendRecord(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(m.SumTF))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.N))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.FirstBlock))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.NumBlocks))
	var flags byte
	if m.HasTFs {
		flags |= metaHasTFs
	}
	if m.HasBounds {
		flags |= metaHasBounds
	}
	return append(b, flags, 0, 0, 0)
}

// MappedListMetaAt decodes the record at the start of b, which must
// hold MappedListMetaSize bytes. ok is false when a reserved bit or
// byte is set: the record is corrupt.
func MappedListMetaAt(b []byte) (m MappedListMeta, ok bool) {
	b = b[:MappedListMetaSize]
	m = MappedListMeta{
		SumTF:      int64(binary.LittleEndian.Uint64(b[0:])),
		N:          int32(binary.LittleEndian.Uint32(b[8:])),
		FirstBlock: int32(binary.LittleEndian.Uint32(b[12:])),
		NumBlocks:  int32(binary.LittleEndian.Uint32(b[16:])),
		HasTFs:     b[20]&metaHasTFs != 0,
		HasBounds:  b[20]&metaHasBounds != 0,
	}
	return m, b[20]&^(metaHasTFs|metaHasBounds) == 0 && b[21]|b[22]|b[23] == 0
}

// MappedEncoder writes the format-v4 blocks of a sequence of lists, in
// the order they are added. Each block's payload goes to the writer
// given to NewMappedEncoder as soon as it is encoded; the fixed-width
// directory stays in memory (BlockDirEntrySize bytes per block) for the
// caller to write after the payloads. A MappedSource's blocks are
// copied verbatim once their CRCs check out; chunks that gain postings
// in EncodeMerged are encoded. A block's bytes depend only on its
// postings and score bound, so a list copied out of a file written by a
// fresh build is the list a fresh build writes. The first write
// error sticks: every later call returns it.
type MappedEncoder struct {
	w      io.Writer
	off    uint64 // payload bytes written so far
	dir    []byte
	blocks int
	err    error

	// Reused from block to block: the encoded payload, the decode of a
	// base block EncodeMerged re-encodes, and the chunk run it builds.
	buf   []byte
	sc    blockScratch
	keys  []uint16
	tfs   []uint32
	words []uint64
}

// NewMappedEncoder returns an encoder whose block payloads go to w,
// its directory sized for the given number of blocks (a hint: it grows
// past it as needed).
func NewMappedEncoder(w io.Writer, blocks int) *MappedEncoder {
	return &MappedEncoder{w: w, dir: make([]byte, 0, blocks*BlockDirEntrySize)}
}

// Dir returns the directory of every block written so far.
func (e *MappedEncoder) Dir() []byte { return e.dir }

func (e *MappedEncoder) write(p []byte) error {
	if e.err != nil {
		return e.err
	}
	if _, err := e.w.Write(p); err != nil {
		e.err = err
		return err
	}
	e.off += uint64(len(p))
	return nil
}

var zeroPad [8]byte

// emit writes one block's payload — 8-aligned for the raw encodings a
// reader aliases in place — and appends ent to the directory with its
// offset set to where the payload landed.
func (e *MappedEncoder) emit(ent dirEntry, blob []byte) error {
	if ent.enc != BlockSparsePacked && e.off%8 != 0 {
		if err := e.write(zeroPad[:8-e.off%8]); err != nil {
			return err
		}
	}
	ent.off = e.off
	if err := e.write(blob); err != nil {
		return err
	}
	e.dir = appendDirEntry(e.dir, ent)
	e.blocks++
	return nil
}

// encode writes one block from a chunk's postings: keys (sparse) or
// words (dense, a chunkWords-word bitset), with tfs in posting order
// (nil: TF = 1 throughout). Sparse keys are packed when that is
// strictly smaller than the raw array; an all-ones TF column is
// dropped.
func (e *MappedEncoder) encode(base uint32, n int, keys []uint16, words []uint64, tfs []uint32, bound ChunkBound) error {
	buf := e.buf[:0]
	enc := BlockDenseRaw
	if words != nil {
		for _, w := range words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	} else {
		enc = BlockSparsePacked
		if buf = packKeys16(buf, keys); len(buf) >= 2*len(keys) {
			enc = BlockSparseRaw
			buf = buf[:0]
			for _, k := range keys {
				buf = binary.LittleEndian.AppendUint16(buf, k)
			}
		}
	}
	idLen := len(buf)
	if tfs != nil && !allOnes(tfs) {
		for _, tf := range tfs {
			buf = binary.AppendUvarint(buf, uint64(tf))
		}
	}
	e.buf = buf
	return e.emit(dirEntry{
		base:  base,
		n:     int32(n),
		idLen: uint32(idLen),
		tfLen: uint32(len(buf) - idLen),
		crc:   crc32.Checksum(buf, mappedCRC),
		bound: bound,
		enc:   enc,
	}, buf)
}

// ListSource is a mapped list's blocks as a MappedEncoder reads them,
// in place, without building the list. The zero ListSource is the
// empty list.
type ListSource struct {
	meta         MappedListMeta
	dir, payload []byte
}

// MappedSource is a mapped list as an encoder source: meta is its
// record, dir its directory slice and payload the region its offsets
// index, all as ValidateMappedList accepted them.
func MappedSource(meta MappedListMeta, dir, payload []byte) ListSource {
	return ListSource{meta: meta, dir: dir, payload: payload}
}

// entry returns the directory entry of block ci.
func (s *ListSource) entry(ci int) dirEntry {
	return decodeDirEntry(s.dir[ci*BlockDirEntrySize:])
}

// put writes block ci of s verbatim once its CRC checks out — a block
// that fails it is a *BlockCorruptError, since copying it would turn
// the corruption into a CRC-valid block.
func (e *MappedEncoder) put(s *ListSource, ci int) error {
	ent := s.entry(ci)
	blob := s.payload[ent.off : ent.off+uint64(ent.idLen)+uint64(ent.tfLen)]
	if err := checkBlock(ent, blob); err != nil {
		return err
	}
	return e.emit(ent, blob)
}

// EncodeList writes every chunk of s unchanged, one block each, and
// returns the list's dictionary record rebased onto this encoder.
func (e *MappedEncoder) EncodeList(s ListSource) (MappedListMeta, error) {
	meta := s.meta
	meta.FirstBlock = int32(e.blocks)
	for ci := 0; ci < int(meta.NumBlocks); ci++ {
		if err := e.put(&s, ci); err != nil {
			return meta, err
		}
	}
	return meta, nil
}

// EncodeMerged writes the list of base's postings followed by add's,
// whose DocIDs all exceed base's, and returns its dictionary record: what a
// fresh build writes for a term both old and new documents contain —
// and, over the empty ListSource, for any term of a fresh build.
// Base chunks below add's first chunk range keep their blocks, as
// EncodeList writes them. The chunk both share, and every chunk of add,
// are encoded from their merged postings. With docLen non-nil the list
// carries score bounds: an encoded chunk's bound is the largest TF and
// the smallest document length docLen reads among its postings, and a
// base without bounds has every chunk re-encoded to get one. add must
// not be used afterwards.
func (e *MappedEncoder) EncodeMerged(base ListSource, add *Builder, docLen func(docID uint32) int32) (MappedListMeta, error) {
	meta := base.meta
	blocks, bounded := int(meta.NumBlocks), meta.HasBounds
	ids, tfs := add.ids, add.tfs
	add.ids, add.tfs = nil, nil
	meta.N += int32(len(ids))
	meta.HasBounds = docLen != nil
	meta.FirstBlock = int32(e.blocks)
	// One walk gives both the TF sum and whether any TF differs from 1;
	// OR-ing tf^1 keeps the loop free of a data-dependent branch.
	var sum int64
	var notOne uint32
	for _, tf := range tfs {
		sum += int64(tf)
		notOne |= tf ^ 1
	}
	meta.SumTF += sum
	meta.HasTFs = meta.HasTFs || notOne != 0
	first := uint32(math.MaxUint32) // first chunk range add reaches
	if len(ids) > 0 {
		first = ids[0] &^ (chunkSpan - 1)
	}
	next := 0 // add's first posting not yet written
	for ci := 0; ci < blocks; ci++ {
		ent := base.entry(ci)
		cb := ent.base
		if cb < first && (docLen == nil || bounded) {
			if err := e.put(&base, ci); err != nil {
				return meta, err
			}
			continue
		}
		// A strict decode into the encoder's scratch: corruption is an
		// error here, never a quarantined stand-in.
		keys, words, btfs, _, err := readBlock(ent, base.payload, &e.sc)
		if err != nil {
			return meta, err
		}
		e.keys, e.tfs = e.keys[:0], e.tfs[:0]
		e.appendRun(keys, words, btfs)
		for ; cb == first && next < len(ids) && ids[next]&^(chunkSpan-1) == cb; next++ {
			e.keys = append(e.keys, uint16(ids[next]))
			e.tfs = append(e.tfs, tfs[next])
		}
		if err := e.putRun(cb, docLen); err != nil {
			return meta, err
		}
	}
	for next < len(ids) {
		cb := ids[next] &^ (chunkSpan - 1)
		e.keys, e.tfs = e.keys[:0], e.tfs[:0]
		for ; next < len(ids) && ids[next]&^(chunkSpan-1) == cb; next++ {
			e.keys = append(e.keys, uint16(ids[next]))
			e.tfs = append(e.tfs, tfs[next])
		}
		if err := e.putRun(cb, docLen); err != nil {
			return meta, err
		}
	}
	meta.NumBlocks = int32(e.blocks) - meta.FirstBlock
	return meta, nil
}

// appendRun appends a chunk payload's postings to the run in e.keys and
// e.tfs.
func (e *MappedEncoder) appendRun(keys []uint16, words []uint64, tfs []uint32) {
	from := len(e.keys)
	if words != nil {
		for w, x := range words {
			for ; x != 0; x &= x - 1 {
				e.keys = append(e.keys, uint16(w<<6|bits.TrailingZeros64(x)))
			}
		}
	} else {
		e.keys = append(e.keys, keys...)
	}
	if tfs != nil {
		e.tfs = append(e.tfs, tfs...)
		return
	}
	for range e.keys[from:] {
		e.tfs = append(e.tfs, 1)
	}
}

// putRun encodes the run in e.keys and e.tfs as the chunk based at
// base, in the representation buildChunks picks for its cardinality,
// with its score bound when docLen is non-nil.
func (e *MappedEncoder) putRun(base uint32, docLen func(docID uint32) int32) error {
	var bound ChunkBound
	if docLen != nil {
		bound.MinDocLen = math.MaxInt32
		for i, k := range e.keys {
			bound.MaxTF = max(bound.MaxTF, e.tfs[i])
			bound.MinDocLen = min(bound.MinDocLen, docLen(base|uint32(k)))
		}
	}
	if len(e.keys) < DenseThreshold {
		return e.encode(base, len(e.keys), e.keys, nil, e.tfs, bound)
	}
	if e.words == nil {
		e.words = make([]uint64, chunkWords)
	}
	clear(e.words)
	for _, k := range e.keys {
		e.words[k>>6] |= 1 << (k & 63)
	}
	return e.encode(base, len(e.keys), nil, e.words, e.tfs, bound)
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

// appendDirEntry appends ent's BlockDirEntrySize-byte record to dir.
func appendDirEntry(dir []byte, ent dirEntry) []byte {
	var b [BlockDirEntrySize]byte
	binary.LittleEndian.PutUint32(b[0:4], ent.base)
	binary.LittleEndian.PutUint32(b[4:8], uint32(ent.n))
	binary.LittleEndian.PutUint64(b[8:16], ent.off)
	binary.LittleEndian.PutUint32(b[16:20], ent.idLen)
	binary.LittleEndian.PutUint32(b[20:24], ent.tfLen)
	binary.LittleEndian.PutUint32(b[24:28], ent.crc)
	binary.LittleEndian.PutUint32(b[28:32], ent.bound.MaxTF)
	binary.LittleEndian.PutUint32(b[32:36], uint32(ent.bound.MinDocLen))
	b[36] = ent.enc
	return append(dir, b[:]...)
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
	keys, words, tfs, weight, err := readBlock(s.entry(ci), s.payload, nil)
	if err != nil {
		if s.quar == nil {
			panic(err)
		}
		p := quarantinedPayload(l.chunks[ci].enc)
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
	p := &chunkPayload{keys: keys, bits: words, tfs: tfs, cached: weight > 0 && s.cache != nil}
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

// blockScratch is reusable storage for the columns readBlock decodes. A
// nil *blockScratch hands out fresh slices instead.
type blockScratch struct {
	keys  []uint16
	words []uint64
	tfs   []uint32
}

func (sc *blockScratch) u16(n int) []uint16 {
	if sc == nil {
		return make([]uint16, n)
	}
	if cap(sc.keys) < n {
		sc.keys = make([]uint16, n)
	}
	return sc.keys[:n]
}

func (sc *blockScratch) u64(n int) []uint64 {
	if sc == nil {
		return make([]uint64, n)
	}
	if cap(sc.words) < n {
		sc.words = make([]uint64, n)
	}
	return sc.words[:n]
}

func (sc *blockScratch) u32(n int) []uint32 {
	if sc == nil {
		return make([]uint32, n)
	}
	if cap(sc.tfs) < n {
		sc.tfs = make([]uint32, n)
	}
	return sc.tfs[:n]
}

// corruptBlock returns the *BlockCorruptError for the block at payload
// offset off.
func corruptBlock(off uint64, format string, args ...any) error {
	return &BlockCorruptError{Detail: fmt.Sprintf("block at payload offset %d: ", off) + fmt.Sprintf(format, args...)}
}

// checkBlock verifies a block's payload bytes against its directory CRC.
func checkBlock(ent dirEntry, blob []byte) error {
	if got := crc32.Checksum(blob, mappedCRC); got != ent.crc {
		return corruptBlock(ent.off, "checksum mismatch 0x%08x != 0x%08x", got, ent.crc)
	}
	return nil
}

// readBlock verifies block ent against its CRC and decodes it from
// payload. Raw columns alias payload where the host's byte order and
// the alignment allow; every other column decodes into sc. weight is
// the bytes decoded rather than aliased — with sc nil, the heap a
// cached payload holds (zero-copy blocks weigh nothing and are
// memoized outside the cache budget). A block that fails verification
// is a *BlockCorruptError.
func readBlock(ent dirEntry, payload []byte, sc *blockScratch) (keys []uint16, words []uint64, tfs []uint32, weight int64, err error) {
	blob := payload[ent.off : ent.off+uint64(ent.idLen)+uint64(ent.tfLen)]
	if err := checkBlock(ent, blob); err != nil {
		return nil, nil, nil, 0, err
	}
	idBytes := blob[:ent.idLen]
	n := int(ent.n)
	switch ent.enc {
	case BlockDenseRaw:
		var ok bool
		if words, ok = aliasU64(idBytes, chunkWords); !ok {
			words = sc.u64(chunkWords)
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(idBytes[i*8:])
			}
			weight += chunkWords * 8
		}
	case BlockSparseRaw:
		var ok bool
		if keys, ok = aliasU16(idBytes, n); !ok {
			keys = sc.u16(n)
			for i := range keys {
				keys[i] = binary.LittleEndian.Uint16(idBytes[i*2:])
			}
			weight += int64(n) * 2
		}
	case BlockSparsePacked:
		if keys, err = unpackKeys16(idBytes, sc.u16(n), ent.off); err != nil {
			return nil, nil, nil, 0, err
		}
		weight += int64(n) * 2
	default:
		return nil, nil, nil, 0, corruptBlock(ent.off, "unknown encoding %d", ent.enc)
	}
	if ent.tfLen > 0 {
		tfBytes := blob[ent.idLen:]
		tfs = sc.u32(n)
		for i := range tfs {
			v, c := binary.Uvarint(tfBytes)
			if c <= 0 || v > 1<<32-1 {
				return nil, nil, nil, 0, corruptBlock(ent.off, "corrupt tf %d", i)
			}
			tfBytes = tfBytes[c:]
			tfs[i] = uint32(v)
		}
		if len(tfBytes) != 0 {
			return nil, nil, nil, 0, corruptBlock(ent.off, "%d trailing tf bytes", len(tfBytes))
		}
		weight += int64(n) * 4
	}
	return keys, words, tfs, weight, nil
}

// unpackKeys16 decodes a delta+uvarint key block into keys (its length
// is the key count), validating strict ascent, range and exact
// consumption.
func unpackKeys16(b []byte, keys []uint16, off uint64) ([]uint16, error) {
	prev := uint64(0)
	for i := range keys {
		v, c := binary.Uvarint(b)
		if c <= 0 || v == 0 {
			return nil, corruptBlock(off, "corrupt key gap %d", i)
		}
		b = b[c:]
		k := prev + v
		if i == 0 {
			k = v - 1
		}
		if k >= chunkSpan {
			return nil, corruptBlock(off, "key %d out of range", i)
		}
		keys[i] = uint16(k)
		prev = k
	}
	if len(b) != 0 {
		return nil, corruptBlock(off, "%d trailing key bytes", len(b))
	}
	return keys, nil
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

// ValidateMappedList checks a mapped list's directory against its
// dictionary record and the payload region, allocating nothing: every
// block's base, count, encoding, lengths and payload range, and the
// posting total.
// dir must be the list's own directory slice (meta.NumBlocks entries)
// and payload the whole region its offsets index. The directory is
// untrusted; an index runs this on every term at open, so a corrupt
// directory fails the open. Payload bytes are validated per block at
// materialization.
func ValidateMappedList(meta MappedListMeta, dir, payload []byte) error {
	nb := int(meta.NumBlocks)
	if nb <= 0 || meta.N <= 0 {
		return fmt.Errorf("postings: mapped list with %d blocks, %d postings", nb, meta.N)
	}
	if len(dir) != nb*BlockDirEntrySize {
		return fmt.Errorf("postings: mapped list directory is %d bytes, want %d", len(dir), nb*BlockDirEntrySize)
	}
	total := 0
	prevBase := int64(-1)
	for ci := 0; ci < nb; ci++ {
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
	if total != int(meta.N) {
		return fmt.Errorf("postings: mapped list blocks hold %d postings, its record says %d", total, meta.N)
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
	nb := int(meta.NumBlocks)
	l := &List{
		chunks:  make([]chunk, nb),
		offsets: make([]int, nb+1),
		n:       int(meta.N),
		segSize: segSize,
	}
	var bounds []ChunkBound
	if meta.HasBounds {
		bounds = make([]ChunkBound, nb)
	}
	for ci := 0; ci < nb; ci++ {
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
		mat:     make([]atomic.Pointer[chunkPayload], nb),
	}
	if bounds != nil {
		l.adoptBounds(bounds)
	}
	return l
}

// BlockStats summarizes a mapped list's block layout, read from its
// directory: encoding mix and on-disk footprint.
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

// BlockStats reports a mapped list's block layout (a heap list has no
// blocks and reports none).
func (l *List) BlockStats() BlockStats {
	var bs BlockStats
	if l.src == nil {
		return bs
	}
	for ci := range l.chunks {
		ent := l.src.entry(ci)
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
