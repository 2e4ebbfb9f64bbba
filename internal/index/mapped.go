package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"unsafe"

	"csrank/internal/fsx"
	"csrank/internal/postings"
	"csrank/internal/snapshot"
)

// Index format v4: a page-aligned paged container (snapshot.PagedMagic)
// whose posting containers are readable in place from a memory mapping.
// Opening a v4 file decodes only the table of contents and validates the
// fixed-width block directory — O(terms + blocks), no posting list is
// built and no payload byte touched — and document lengths alias the
// mapping directly. The decoded TOC is each field's term table; a term's
// list is built on its first Postings lookup, and its blocks materialize
// lazily, block by block, as queries reach them; the pruned top-k path
// therefore dismisses whole blocks via their directory bounds without
// ever reading their pages.
//
// Sections (every one page-aligned, CRC32-C checksummed):
//
//	"toc"      gob mappedTOC: schema, counts, per-term list metadata,
//	           slab offsets into "lengths"/"stored"  (verified at open)
//	"dir"      all block directory entries, 40 B each (verified at open)
//	"lengths"  per-field []int32 document lengths, raw LE
//	           (verified at open; aliased zero-copy on LE hosts)
//	"stored"   per-field stored text: [NumDocs+1]uint32 offsets + blob
//	           (lazy: verified by Verify, strings materialize on access)
//	"postings" block payloads, raw encodings 8-aligned
//	           (lazy: per-block CRCs check each block on first touch,
//	           Verify checks the whole section)
const MappedFormatVersion = 4

// DefaultBlockCacheBudget bounds the decoded-block heap of one mapped
// index (packed and TF-carrying blocks only; zero-copy blocks are free).
const DefaultBlockCacheBudget = 64 << 20

// mappedTOC is the gob-coded table of contents of a v4 file.
type mappedTOC struct {
	Schema  Schema
	SegSize int
	NumDocs int
	Fields  map[string]mappedFieldTOC
	// Lengths maps each field to the byte offset of its []int32 slab in
	// the "lengths" section (NumDocs entries).
	Lengths map[string]int64
	// Stored maps each stored field to its slab in the "stored" section.
	Stored map[string]mappedStoredSlab
}

type mappedFieldTOC struct {
	TotalLen int64
	Terms    map[string]postings.MappedListMeta
}

// mappedStoredSlab locates one stored field: NumDocs+1 uint32 offsets at
// OffsOff (4-aligned), indexing into the blob at [BlobOff, BlobOff+BlobLen).
type mappedStoredSlab struct {
	OffsOff int64
	BlobOff int64
	BlobLen int64
}

// storedView reads one stored field's strings straight out of the
// mapping, materializing a string only when a document is displayed.
type storedView struct {
	offs []uint32
	blob []byte
}

func (v *storedView) at(doc DocID) string {
	if int(doc)+1 >= len(v.offs) {
		return ""
	}
	return string(v.blob[v.offs[doc]:v.offs[doc+1]])
}

var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aliasI32 reinterprets b as n int32s, zero-copy on aligned LE hosts.
func aliasI32(b []byte, n int) []int32 {
	if n == 0 {
		return []int32{}
	}
	if nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// aliasU32 reinterprets b as n uint32s, zero-copy on aligned LE hosts.
func aliasU32(b []byte, n int) []uint32 {
	if n == 0 {
		return []uint32{}
	}
	if nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// WritePaged serializes the index in format v4. pageSize ≤ 0 selects
// snapshot.DefaultPageSize; tests shrink it to keep fixtures small.
// Layout is deterministic: fields and terms are emitted in sorted order.
func (ix *Index) WritePaged(w io.Writer, pageSize int) error {
	pw, err := snapshot.NewPagedWriter(w, snapshot.KindIndex, MappedFormatVersion, pageSize)
	if err != nil {
		return err
	}
	toc := mappedTOC{
		Schema:  ix.schema,
		SegSize: ix.segSize,
		NumDocs: ix.numDocs,
		Fields:  make(map[string]mappedFieldTOC, len(ix.fields)),
		Lengths: make(map[string]int64, len(ix.lengths)),
		Stored:  make(map[string]mappedStoredSlab),
	}

	// Posting blocks: one encoder accumulates the shared payload region
	// and directory across all lists.
	var enc postings.MappedEncoder
	for _, field := range sortedKeys(ix.fields) {
		fi := ix.fields[field]
		ft := mappedFieldTOC{
			TotalLen: fi.totalLen,
			Terms:    make(map[string]postings.MappedListMeta, fi.size()),
		}
		ix.eachList(fi, func(term string, l *postings.List) {
			ft.Terms[term] = enc.EncodeList(l)
		})
		toc.Fields[field] = ft
	}

	// Length slabs: each field's []int32, raw little-endian, 4-aligned by
	// construction (every slab is NumDocs*4 bytes from offset 0).
	var lenBuf bytes.Buffer
	for _, field := range sortedKeys(ix.lengths) {
		toc.Lengths[field] = int64(lenBuf.Len())
		var tmp [4]byte
		for _, l := range ix.lengths[field] {
			binary.LittleEndian.PutUint32(tmp[:], uint32(l))
			lenBuf.Write(tmp[:])
		}
	}

	// Stored slabs: offsets then blob per field, offsets 4-aligned.
	var stBuf bytes.Buffer
	for _, field := range sortedKeys(ix.stored) {
		vs := ix.storedSlice(field)
		for stBuf.Len()%4 != 0 {
			stBuf.WriteByte(0)
		}
		slab := mappedStoredSlab{OffsOff: int64(stBuf.Len())}
		var tmp [4]byte
		off := uint32(0)
		for _, s := range vs {
			binary.LittleEndian.PutUint32(tmp[:], off)
			stBuf.Write(tmp[:])
			off += uint32(len(s))
		}
		binary.LittleEndian.PutUint32(tmp[:], off)
		stBuf.Write(tmp[:])
		slab.BlobOff = int64(stBuf.Len())
		slab.BlobLen = int64(off)
		for _, s := range vs {
			stBuf.WriteString(s)
		}
		toc.Stored[field] = slab
	}

	var tocBuf bytes.Buffer
	if err := gob.NewEncoder(&tocBuf).Encode(&toc); err != nil {
		return fmt.Errorf("index: encode toc: %w", err)
	}

	for _, sec := range []struct {
		name  string
		flags uint16
		data  []byte
	}{
		{"toc", 0, tocBuf.Bytes()},
		{"dir", 0, enc.Dir()},
		{"lengths", 0, lenBuf.Bytes()},
		{"stored", snapshot.SectionLazyVerify, stBuf.Bytes()},
		{"postings", snapshot.SectionLazyVerify, enc.Payload()},
	} {
		if err := pw.Begin(sec.name, sec.flags); err != nil {
			return err
		}
		if _, err := pw.Write(sec.data); err != nil {
			return err
		}
	}
	return pw.Close()
}

// SaveMapped writes the index to path in format v4 — the one format any
// writer emits — with the atomic write-to-temp + fsync + rename
// protocol: a crash at any instant leaves either the previous file or
// the complete new one.
func (ix *Index) SaveMapped(path string) error {
	return ix.SaveMappedFS(fsx.OS, path)
}

// SaveMappedFS is SaveMapped against an explicit filesystem.
func (ix *Index) SaveMappedFS(fs fsx.FS, path string) error {
	return fsx.WriteFileAtomic(fs, path, func(w io.Writer) error {
		return ix.WritePaged(w, 0)
	})
}

// OpenMapped memory-maps a format-v4 index file. The returned index
// shares pages with the OS page cache; Close releases the mapping.
func OpenMapped(path string) (*Index, error) {
	return OpenMappedFS(fsx.OS, path, DefaultBlockCacheBudget)
}

// OpenMappedFS is OpenMapped against an explicit filesystem (a
// filesystem without mmap support — the fault injector — falls back to
// reading the whole file into memory, same format, same validation).
// cacheBudget bounds the decoded-block heap; ≤ 0 selects the default.
func OpenMappedFS(fs fsx.FS, path string, cacheBudget int64) (*Index, error) {
	m, err := fsx.MapFile(fs, path)
	if err != nil {
		return nil, err
	}
	ix, err := openMapped(m.Data, m, cacheBudget)
	if err != nil {
		m.Close()
		return nil, err
	}
	return ix, nil
}

// OpenMappedBytes opens a v4 image held in memory (tests, in-process
// round-trips). The caller keeps ownership of data, which must stay
// immutable while the index is in use.
func OpenMappedBytes(data []byte, cacheBudget int64) (*Index, error) {
	return openMapped(data, nil, cacheBudget)
}

func openMapped(data []byte, m *fsx.Mapping, cacheBudget int64) (*Index, error) {
	if cacheBudget <= 0 {
		cacheBudget = DefaultBlockCacheBudget
	}
	pf, err := snapshot.OpenPaged(data)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	if kind := pf.Header().Kind; kind != snapshot.KindIndex {
		return nil, fmt.Errorf("index: paged file holds payload kind %d, want %d (index)", kind, snapshot.KindIndex)
	}
	if v := pf.Header().PayloadVersion; v != MappedFormatVersion {
		return nil, fmt.Errorf("index: unsupported paged format version %d (this build reads %d)", v, MappedFormatVersion)
	}
	need := func(name string) ([]byte, error) {
		sec, ok := pf.Section(name)
		if !ok {
			return nil, fmt.Errorf("index: paged file lacks section %q", name)
		}
		return sec, nil
	}
	tocSec, err := need("toc")
	if err != nil {
		return nil, err
	}
	dirSec, err := need("dir")
	if err != nil {
		return nil, err
	}
	lenSec, err := need("lengths")
	if err != nil {
		return nil, err
	}
	stSec, err := need("stored")
	if err != nil {
		return nil, err
	}
	paySec, err := need("postings")
	if err != nil {
		return nil, err
	}

	var toc mappedTOC
	if err := gob.NewDecoder(io.LimitReader(bytes.NewReader(tocSec), maxDecodeBytes)).Decode(&toc); err != nil {
		return nil, fmt.Errorf("index: decode toc: %w", err)
	}
	if toc.NumDocs < 0 || toc.NumDocs > maxDocs {
		return nil, fmt.Errorf("index: persisted NumDocs %d out of range [0, %d]", toc.NumDocs, maxDocs)
	}
	if toc.SegSize < 0 || toc.SegSize > maxSegSize {
		return nil, fmt.Errorf("index: persisted SegSize %d out of range [0, %d]", toc.SegSize, maxSegSize)
	}
	if err := toc.Schema.Validate(); err != nil {
		return nil, fmt.Errorf("index: persisted schema invalid: %w", err)
	}
	if len(dirSec)%postings.BlockDirEntrySize != 0 {
		return nil, fmt.Errorf("index: block directory length %d is not a multiple of %d", len(dirSec), postings.BlockDirEntrySize)
	}
	totalBlocks := len(dirSec) / postings.BlockDirEntrySize

	ix := &Index{
		schema:  toc.Schema,
		segSize: toc.SegSize,
		numDocs: toc.NumDocs,
		lengths: make(map[string][]int32, len(toc.Lengths)),
		stored:  make(map[string][]string),
		fields:  make(map[string]*fieldIndex, len(toc.Fields)),
		paged:   pf,
		mapping: m,
		cache:   postings.NewBlockCache(cacheBudget),
		stviews: make(map[string]*storedView, len(toc.Stored)),
		quar:    &postings.Quarantine{},
		dir:     dirSec,
		payload: paySec,
		lists:   make([]atomic.Pointer[postings.List], totalBlocks),
	}

	for field, off := range toc.Lengths {
		n := toc.NumDocs
		if off < 0 || off%4 != 0 || off+int64(n)*4 > int64(len(lenSec)) {
			return nil, fmt.Errorf("index: field %q length slab [%d, +%d) outside section of %d bytes", field, off, n*4, len(lenSec))
		}
		ls := aliasI32(lenSec[off:off+int64(n)*4], n)
		for d, l := range ls {
			if l < 0 {
				return nil, fmt.Errorf("index: field %q doc %d has negative length %d", field, d, l)
			}
		}
		ix.lengths[field] = ls
	}
	for field, slab := range toc.Stored {
		n := int64(toc.NumDocs) + 1
		if slab.OffsOff < 0 || slab.OffsOff%4 != 0 || slab.OffsOff+n*4 > int64(len(stSec)) {
			return nil, fmt.Errorf("index: field %q stored offsets outside section", field)
		}
		if slab.BlobOff < 0 || slab.BlobLen < 0 || slab.BlobOff+slab.BlobLen > int64(len(stSec)) {
			return nil, fmt.Errorf("index: field %q stored blob outside section", field)
		}
		offs := aliasU32(stSec[slab.OffsOff:slab.OffsOff+n*4], int(n))
		prev := uint32(0)
		for d, o := range offs {
			if o < prev || int64(o) > slab.BlobLen {
				return nil, fmt.Errorf("index: field %q stored offset %d out of order", field, d)
			}
			prev = o
		}
		ix.stviews[field] = &storedView{offs: offs, blob: stSec[slab.BlobOff : slab.BlobOff+slab.BlobLen]}
	}
	// A term's list slot is its first directory block; starts marks the
	// blocks claimed so far, so no two terms share a slot.
	starts := make([]uint64, (totalBlocks+63)/64)
	for field, ft := range toc.Fields {
		if ft.TotalLen < 0 {
			return nil, fmt.Errorf("index: field %q has negative TotalLen %d", field, ft.TotalLen)
		}
		for term, meta := range ft.Terms {
			if meta.FirstBlock < 0 || meta.NumBlocks < 0 || meta.FirstBlock+meta.NumBlocks > totalBlocks {
				return nil, fmt.Errorf("index: term %q directory range [%d, +%d) outside %d blocks", term, meta.FirstBlock, meta.NumBlocks, totalBlocks)
			}
			if err := postings.ValidateMappedList(meta, ix.termDir(meta), paySec); err != nil {
				return nil, fmt.Errorf("index: term %q: %w", term, err)
			}
			if meta.N > toc.NumDocs {
				return nil, fmt.Errorf("index: term %q has %d postings for %d documents", term, meta.N, toc.NumDocs)
			}
			w, bit := meta.FirstBlock/64, uint64(1)<<(meta.FirstBlock%64)
			if starts[w]&bit != 0 {
				return nil, fmt.Errorf("index: term %q starts at directory block %d, as another term does", term, meta.FirstBlock)
			}
			starts[w] |= bit
		}
		ix.fields[field] = &fieldIndex{toc: ft.Terms, totalLen: ft.TotalLen}
	}
	return ix, nil
}

// termDir returns the directory entries of the list meta describes.
func (ix *Index) termDir(meta postings.MappedListMeta) []byte {
	return ix.dir[meta.FirstBlock*postings.BlockDirEntrySize : (meta.FirstBlock+meta.NumBlocks)*postings.BlockDirEntrySize]
}

// buildList builds the list meta describes over the mapped sections,
// with the index's block cache and quarantine registry. Open validated
// its directory, so the build cannot fail.
func (ix *Index) buildList(meta postings.MappedListMeta) *postings.List {
	l := postings.NewMappedList(meta, ix.termDir(meta), ix.payload, ix.segSize, ix.cache)
	l.SetQuarantine(ix.quar)
	return l
}

// Mapped reports whether the index reads its posting blocks from a v4
// paged image (memory-mapped or in-memory) rather than heap lists.
func (ix *Index) Mapped() bool { return ix.paged != nil }

// Close releases the memory mapping of a mapped index. The index — and
// every posting list obtained from it — must not be used afterwards.
// Heap indexes ignore Close.
func (ix *Index) Close() error {
	if ix.mapping == nil {
		return nil
	}
	return ix.mapping.Close()
}

// Verify checksums every section of a mapped index, including the lazy
// payload sections that open-time validation deliberately skips. It
// reads the whole file; intended for fsck-style audits, not the query
// path. Heap indexes verify trivially.
func (ix *Index) Verify() error {
	if ix.paged == nil {
		return nil
	}
	return ix.paged.VerifyAll()
}

// BlockCacheStats reports the decoded-block cache's budget, usage and
// hit/miss/eviction counters (zeros for heap indexes).
func (ix *Index) BlockCacheStats() postings.BlockCacheStats {
	return ix.cache.Stats()
}

// storedSlice returns field's stored values as a materialized slice,
// reading through the mapped view when present (used by re-encoding).
func (ix *Index) storedSlice(field string) []string {
	if v, ok := ix.stviews[field]; ok {
		out := make([]string, ix.numDocs)
		for d := range out {
			out[d] = v.at(DocID(d))
		}
		return out
	}
	return ix.stored[field]
}

// MappedCopy round-trips ix through the v4 codec entirely in memory and
// returns the mapped twin. It is the force-mapped seam used by
// equivalence tests and CSRANK_FORCE_MAPPED: rankings over the copy must
// be bit-identical to rankings over ix.
func MappedCopy(ix *Index) (*Index, error) {
	var buf bytes.Buffer
	if err := ix.WritePaged(&buf, 0); err != nil {
		return nil, err
	}
	return OpenMappedBytes(buf.Bytes(), 0)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
