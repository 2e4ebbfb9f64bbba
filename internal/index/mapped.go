package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync/atomic"

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

// writeBufferSize is the buffer between the v4 writer and a file: the
// writer streams every section through it, so a file goes to disk in
// pieces of this size instead of being assembled in memory first.
const writeBufferSize = 16 << 10

// WritePaged serializes the index in format v4. pageSize ≤ 0 selects
// snapshot.DefaultPageSize; tests shrink it to keep fixtures small.
// Layout is deterministic: fields and terms are emitted in sorted order.
// A mapped index's blocks are copied verbatim once their CRCs check
// out, so a corrupt block fails the write with a
// *postings.BlockCorruptError rather than being rewritten as the empty
// stand-in the query path serves for it.
func (ix *Index) WritePaged(w io.Writer, pageSize int) error {
	return writeMerged(w, pageSize, ix, nil)
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
	return saveMerged(fs, path, ix, nil)
}

// SaveExtendedFS writes the index Extend(base, docs) returns to path,
// as SaveMappedFS writes one, without building it: the writer merges
// base and the analyzed docs straight into the file. base stays usable
// throughout and is never mutated. This is compaction's write; the
// caller opens the file it wrote to serve it.
func SaveExtendedFS(fs fsx.FS, path string, base *Index, docs []Document) error {
	added, err := analyze(base.schema, base.segSize, DocID(base.numDocs), docs)
	if err != nil {
		return err
	}
	return saveMerged(fs, path, base, added)
}

func saveMerged(fs fsx.FS, path string, base *Index, added *Builder) error {
	return fsx.WriteFileAtomic(fs, path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, writeBufferSize)
		if err := writeMerged(bw, 0, base, added); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// writeMerged writes the v4 image of base's documents followed by
// added's (nil: none), whose DocIDs start at base.NumDocs(). It is the
// one v4 writer: a fresh build is a heap base with nothing added, a
// compaction a mapped base plus the drained documents.
//
// Sections stream in the order postings, dir, lengths, stored, toc
// (readers find them by name), so what stays in memory is the block
// directory, the table of contents and one list's scratch. A term no
// added document contains keeps its blocks — copied verbatim from a
// mapped base, encoded from a heap one. A term one does contain is
// written by EncodeMerged, its score bounds (content field) over the
// merged lengths. Lengths and stored text are base's section bytes
// followed by the added documents'. Every section but the toc, whose
// gob maps encode in varying order, is therefore byte for byte what a
// fresh build over the concatenated documents writes.
func writeMerged(w io.Writer, pageSize int, base *Index, added *Builder) error {
	pw, err := snapshot.NewPagedWriter(w, snapshot.KindIndex, MappedFormatVersion, pageSize)
	if err != nil {
		return err
	}
	n0, na := base.numDocs, 0
	if added != nil {
		na = added.numDocs
	}
	toc := mappedTOC{
		Schema:  base.schema,
		SegSize: base.segSize,
		NumDocs: n0 + na,
		Fields:  make(map[string]mappedFieldTOC, len(base.fields)),
		Lengths: make(map[string]int64, len(base.lengths)),
		Stored:  make(map[string]mappedStoredSlab),
	}
	// Added documents bring every schema field; base brings the fields
	// it holds (the same ones, for any index a build wrote).
	var addFields, addStored []string
	if added != nil {
		for _, f := range base.schema.Fields {
			addFields = append(addFields, f.Name)
			if f.Stored {
				addStored = append(addStored, f.Name)
			}
		}
	}

	if err := pw.Begin("postings", snapshot.SectionLazyVerify); err != nil {
		return err
	}
	// Size the directory for base's blocks plus one per added term (a
	// heap base counts one per term): a hint the encoder grows past.
	blocks := len(base.dir) / postings.BlockDirEntrySize
	if base.dir == nil {
		for _, fi := range base.fields {
			blocks += fi.size()
		}
	}
	if added != nil {
		for i := range added.fields {
			blocks += len(added.fields[i].terms)
		}
	}
	enc := postings.NewMappedEncoder(pw, blocks)
	for _, field := range sortedUnion(sortedKeys(base.fields), addFields) {
		ft, err := base.writeField(enc, field, added.field(field))
		if err != nil {
			return err
		}
		toc.Fields[field] = ft
	}
	if err := pw.Begin("dir", 0); err != nil {
		return err
	}
	if _, err := pw.Write(enc.Dir()); err != nil {
		return err
	}

	// Length slabs: each field's []int32, raw little-endian, 4-aligned by
	// construction (every slab is NumDocs*4 bytes from offset 0).
	sw := &sectionWriter{w: pw}
	if err := pw.Begin("lengths", 0); err != nil {
		return err
	}
	for _, field := range sortedUnion(sortedKeys(base.lengths), addFields) {
		toc.Lengths[field] = sw.off
		ls := base.lengths[field]
		for d := 0; d < n0; d++ {
			var l int32
			if d < len(ls) {
				l = ls[d]
			}
			sw.u32(uint32(l))
		}
		if fb := added.field(field); fb != nil {
			for _, l := range fb.lengths {
				sw.u32(uint32(l))
			}
		}
	}
	if err := sw.flush(); err != nil {
		return err
	}

	// Stored slabs: offsets then blob per field, offsets 4-aligned. A
	// mapped base's stored section is verified lazily, by its section
	// CRC: check it before copying, as blocks are checked, so a corrupt
	// byte is refused rather than sealed under the new file's CRC.
	if base.paged != nil {
		if err := base.paged.VerifySection("stored"); err != nil {
			return fmt.Errorf("index: %w", err)
		}
	}
	sw = &sectionWriter{w: pw, buf: sw.buf}
	if err := pw.Begin("stored", snapshot.SectionLazyVerify); err != nil {
		return err
	}
	for _, field := range sortedUnion(sortedKeys(base.stored), sortedKeys(base.stviews), addStored) {
		for sw.off%4 != 0 {
			sw.str("\x00")
		}
		slab := mappedStoredSlab{OffsOff: sw.off}
		var addVals []string
		if fb := added.field(field); fb != nil {
			addVals = fb.stored
		}
		v, vs := base.stviews[field], base.stored[field]
		blobLen := uint32(0)
		if v != nil {
			// A mapped base's offsets are this slab's first n0+1.
			for _, o := range v.offs {
				sw.u32(o)
			}
			blobLen = v.offs[n0]
		} else {
			sw.u32(0)
			for d := 0; d < n0; d++ {
				blobLen += uint32(len(at(vs, d)))
				sw.u32(blobLen)
			}
		}
		for j := 0; j < na; j++ {
			blobLen += uint32(len(at(addVals, j)))
			sw.u32(blobLen)
		}
		slab.BlobOff = sw.off
		slab.BlobLen = int64(blobLen)
		if v != nil {
			sw.bytes(v.blob)
		} else {
			for d := 0; d < n0; d++ {
				sw.str(at(vs, d))
			}
		}
		for j := 0; j < na; j++ {
			sw.str(at(addVals, j))
		}
		toc.Stored[field] = slab
	}
	if err := sw.flush(); err != nil {
		return err
	}

	if err := pw.Begin("toc", 0); err != nil {
		return err
	}
	if err := gob.NewEncoder(pw).Encode(&toc); err != nil {
		return fmt.Errorf("index: encode toc: %w", err)
	}
	return pw.Close()
}

// writeField writes one field's lists — base's terms merged with the
// postings fb adds (nil: none) — in sorted term order and returns the
// field's table of contents. A corrupt base block fails it.
func (base *Index) writeField(enc *postings.MappedEncoder, field string, fb *fieldBuild) (mappedFieldTOC, error) {
	fi := base.fields[field]
	var ft mappedFieldTOC
	if fi != nil {
		ft.TotalLen = fi.totalLen
	}
	var addTerms []string
	if fb != nil {
		ft.TotalLen += fb.total
		addTerms = sortedKeys(fb.terms)
	}
	var docLen func(uint32) int32
	if fb != nil && field == base.schema.ContentField {
		baseLens, n0 := base.lengths[field], uint32(base.numDocs)
		docLen = func(d uint32) int32 {
			switch {
			case d < n0 && int(d) < len(baseLens):
				return baseLens[d]
			case d >= n0 && int(d-n0) < len(fb.lengths):
				return fb.lengths[d-n0]
			}
			return 0
		}
	}
	baseTerms := fi.names()
	ft.Terms = make(map[string]postings.MappedListMeta, len(baseTerms)+len(addTerms))
	for i, j := 0, 0; i < len(baseTerms) || j < len(addTerms); {
		var (
			term string
			meta postings.MappedListMeta
			err  error
		)
		if j == len(addTerms) || (i < len(baseTerms) && baseTerms[i] < addTerms[j]) {
			term = baseTerms[i]
			i++
			meta, err = enc.EncodeList(base.source(fi, term))
		} else {
			term = addTerms[j]
			j++
			if i < len(baseTerms) && baseTerms[i] == term {
				i++
			}
			meta, err = enc.EncodeMerged(base.source(fi, term), fb.terms[term], docLen)
		}
		if err != nil {
			return ft, fmt.Errorf("index: field %q term %q: %w", field, term, err)
		}
		ft.Terms[term] = meta
	}
	return ft, nil
}

// source returns term's list in fi as the v4 encoder reads it: a mapped
// index's blocks in place, without building the list, or a heap index's
// list (the empty list where fi lacks the term).
func (ix *Index) source(fi *fieldIndex, term string) postings.ListSource {
	switch {
	case fi == nil:
		return postings.HeapSource(nil)
	case fi.toc != nil:
		if m, ok := fi.toc[term]; ok {
			return postings.MappedSource(m, ix.termDir(m), ix.payload)
		}
		return postings.HeapSource(nil)
	}
	return postings.HeapSource(fi.terms[term])
}

// at returns vs[i], or "" past its end.
func at(vs []string, i int) string {
	if i < len(vs) {
		return vs[i]
	}
	return ""
}

// sectionWriter batches a section's small writes and counts its bytes.
// The first error sticks and flush reports it.
type sectionWriter struct {
	w   io.Writer
	buf []byte
	off int64
	err error
}

func (s *sectionWriter) flush() error {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
	return s.err
}

func (s *sectionWriter) u32(v uint32) {
	s.buf = binary.LittleEndian.AppendUint32(s.buf, v)
	s.off += 4
	if len(s.buf) >= 4096 {
		s.flush()
	}
}

func (s *sectionWriter) str(v string) {
	s.buf = append(s.buf, v...)
	s.off += int64(len(v))
	if len(s.buf) >= 4096 {
		s.flush()
	}
}

func (s *sectionWriter) bytes(b []byte) {
	if s.flush() == nil {
		_, s.err = s.w.Write(b)
	}
	s.off += int64(len(b))
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
		ls := fsx.Int32s(lenSec[off : off+int64(n)*4])
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
		offs := fsx.Uint32s(stSec[slab.OffsOff : slab.OffsOff+n*4])
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
			first, nb := int(meta.FirstBlock), int(meta.NumBlocks)
			if first < 0 || nb < 0 || first+nb > totalBlocks {
				return nil, fmt.Errorf("index: term %q directory range [%d, +%d) outside %d blocks", term, first, nb, totalBlocks)
			}
			if err := postings.ValidateMappedList(meta, ix.termDir(meta), paySec); err != nil {
				return nil, fmt.Errorf("index: term %q: %w", term, err)
			}
			if int(meta.N) > toc.NumDocs {
				return nil, fmt.Errorf("index: term %q has %d postings for %d documents", term, meta.N, toc.NumDocs)
			}
			w, bit := first/64, uint64(1)<<(first%64)
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
	first, nb := int(meta.FirstBlock), int(meta.NumBlocks)
	return ix.dir[first*postings.BlockDirEntrySize : (first+nb)*postings.BlockDirEntrySize]
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
// Close also drops the index's own views of the mapping — its built
// lists and their blocks, the block cache, the sections, lengths and
// stored text — so nothing the index still references points into the
// released pages. Heap indexes, and mapped ones over an in-memory image,
// ignore Close.
func (ix *Index) Close() error {
	if ix.mapping == nil {
		return nil
	}
	err := ix.mapping.Close()
	ix.paged, ix.cache, ix.dir, ix.payload, ix.lists = nil, nil, nil, nil, nil
	ix.lengths, ix.stviews = nil, nil
	return err
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

// sortedUnion returns the distinct strings of lists, sorted.
func sortedUnion(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Strings(out)
	return slices.Compact(out)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
