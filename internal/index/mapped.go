package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"csrank/internal/fsx"
	"csrank/internal/postings"
	"csrank/internal/snapshot"
)

// Index format v5: a page-aligned paged container (snapshot.PagedMagic)
// whose posting containers and term dictionaries are readable in place
// from a memory mapping. Opening a v5 file decodes a table of contents
// of O(fields) entries and validates the fixed-width block directory
// and each field's dictionary columns in one allocation-free pass —
// O(terms + blocks), no posting list is built, no payload byte touched,
// no term copied — and document lengths alias the mapping directly.
// DF, TotalTF and Postings binary-search a field's sorted term column;
// a term's list is built on its first Postings lookup, and its blocks
// materialize lazily, block by block, as queries reach them; the pruned
// top-k path therefore dismisses whole blocks via their directory
// bounds without ever reading their pages.
//
// Sections (every one page-aligned, CRC32-C checksummed), written in
// this order:
//
//	"postings" block payloads, raw encodings 8-aligned
//	           (lazy: per-block CRCs check each block on first touch,
//	           Verify checks the whole section)
//	"dir"      all block directory entries, 40 B each (verified at open)
//	"terms"    per field, 4-aligned: [NumTerms+1]uint32 offsets into
//	           the blob, NumTerms postings.MappedListMeta records of
//	           24 B, then the blob of sorted terms (verified at open)
//	"lengths"  per-field []int32 document lengths, raw LE
//	           (verified at open; aliased zero-copy on LE hosts)
//	"stored"   per-field stored text: [NumDocs+1]uint32 offsets + blob
//	           (lazy: verified by Verify, strings materialize on access)
//	"toc"      gob mappedTOC: schema, counts, per-field TotalLen and
//	           slab offsets into "terms", "lengths" and "stored"
//	           (verified at open)
//
// Format v4 is v5 without "terms": its toc holds each field's
// dictionary as a gob map of records. It is read-only; open converts
// the map to the same columns and drops it.
const MappedFormatVersion = 5

// DefaultBlockCacheBudget bounds the decoded-block heap of one mapped
// index (packed and TF-carrying blocks only; zero-copy blocks are free).
const DefaultBlockCacheBudget = 64 << 20

// mappedTOC is the gob-coded table of contents of a v5 (or v4) file.
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
	// Dict locates the field's dictionary in the "terms" section (v5).
	Dict mappedDictSlab
	// Terms is a v4 file's dictionary. No writer fills it (gob omits a
	// nil map); open converts it to columns.
	Terms map[string]postings.MappedListMeta
}

// mappedDictSlab locates one field's dictionary columns in the "terms"
// section: NumTerms+1 uint32 offsets at OffsOff (4-aligned), NumTerms
// records at RecsOff, and the blob the offsets index at
// [BlobOff, BlobOff+BlobLen).
type mappedDictSlab struct {
	NumTerms int64
	OffsOff  int64
	RecsOff  int64
	BlobOff  int64
	BlobLen  int64
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

// writeBufferSize is the buffer between the v5 writer and a file: the
// writer streams every section through it, so a file goes to disk in
// pieces of this size instead of being assembled in memory first.
const writeBufferSize = 16 << 10

// SaveMapped writes the index to path in format v5 — the one format any
// writer emits — with the atomic write-to-temp + fsync + rename
// protocol: a crash at any instant leaves either the previous file or
// the complete new one. Fields and terms are written in sorted order,
// and the index's blocks are copied verbatim once their CRCs check out,
// so a corrupt block fails the write with a *postings.BlockCorruptError
// rather than being rewritten as the empty stand-in the query path
// serves for it.
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

// writeMerged writes the v5 image of base's documents followed by
// added's (nil: none), whose DocIDs start at base.NumDocs(). It is the
// one v5 writer: a fresh build (BuildFrom, or Decode of a gob stream)
// is an empty base plus its documents, a save a base with nothing
// added, a compaction a base plus the drained documents.
//
// Sections stream in the order postings, dir, terms, lengths, stored,
// toc (readers find them by name), so what stays in memory is the block
// directory, each field's dictionary columns and one list's scratch. A
// term no added document contains keeps its blocks, copied verbatim
// from base. A term one does contain is written by EncodeMerged, its
// score bounds (content field) over the merged lengths. Lengths and stored text are base's section bytes
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
	// Size the directory for base's blocks plus one per added term: a
	// hint the encoder grows past.
	blocks := len(base.dir) / postings.BlockDirEntrySize
	if added != nil {
		for i := range added.fields {
			blocks += len(added.fields[i].terms)
		}
	}
	enc := postings.NewMappedEncoder(pw, blocks)
	fields := sortedUnion(sortedKeys(base.fields), addFields)
	dicts := make([]termDict, len(fields))
	for i, field := range fields {
		total, d, err := base.writeField(enc, field, added.field(field))
		if err != nil {
			return err
		}
		toc.Fields[field] = mappedFieldTOC{TotalLen: total}
		dicts[i] = d
	}
	if err := pw.Begin("dir", 0); err != nil {
		return err
	}
	if _, err := pw.Write(enc.Dir()); err != nil {
		return err
	}

	// Dictionary slabs: offsets, records, blob per field, offsets
	// 4-aligned.
	sw := &sectionWriter{w: pw}
	if err := pw.Begin("terms", 0); err != nil {
		return err
	}
	for i, field := range fields {
		sw.align4()
		d, ft := &dicts[i], toc.Fields[field]
		ft.Dict = mappedDictSlab{NumTerms: int64(d.len()), OffsOff: sw.off}
		for _, o := range d.offs {
			sw.u32(o)
		}
		ft.Dict.RecsOff = sw.off
		sw.bytes(d.recs)
		ft.Dict.BlobOff, ft.Dict.BlobLen = sw.off, int64(len(d.blob))
		sw.bytes(d.blob)
		toc.Fields[field] = ft
	}
	if err := sw.flush(); err != nil {
		return err
	}

	// Length slabs: each field's []int32, raw little-endian, 4-aligned by
	// construction (every slab is NumDocs*4 bytes from offset 0).
	sw = &sectionWriter{w: pw, buf: sw.buf}
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
	for _, field := range sortedUnion(sortedKeys(base.stviews), addStored) {
		sw.align4()
		slab := mappedStoredSlab{OffsOff: sw.off}
		var addVals []string
		if fb := added.field(field); fb != nil {
			addVals = fb.stored
		}
		// base's offsets are this slab's first n0+1 (all 0 for a field
		// base does not store).
		v := base.stviews[field]
		if v == nil {
			v = &storedView{offs: make([]uint32, n0+1)}
		}
		for _, o := range v.offs {
			sw.u32(o)
		}
		blobLen := v.offs[n0]
		for j := 0; j < na; j++ {
			blobLen += uint32(len(at(addVals, j)))
			sw.u32(blobLen)
		}
		slab.BlobOff = sw.off
		slab.BlobLen = int64(blobLen)
		sw.bytes(v.blob)
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
// postings fb adds (nil: none) — in sorted term order, and returns the
// field's total length and its dictionary columns, built as the lists
// are written. A corrupt base block fails it.
func (base *Index) writeField(enc *postings.MappedEncoder, field string, fb *fieldBuild) (int64, termDict, error) {
	fi := base.fields[field]
	bd := fi.column()
	var total int64
	if fi != nil {
		total = fi.totalLen
	}
	var addTerms []string
	addBytes := 0
	if fb != nil {
		total += fb.total
		addTerms = sortedKeys(fb.terms)
		for _, t := range addTerms {
			addBytes += len(t)
		}
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
	out := newDict(bd.len()+len(addTerms), len(bd.blob)+addBytes)
	for i, j := 0, 0; i < bd.len() || j < len(addTerms); {
		var (
			meta postings.MappedListMeta
			err  error
		)
		if j == len(addTerms) || (i < bd.len() && string(bd.key(i)) < addTerms[j]) {
			out.blob = append(out.blob, bd.key(i)...)
			meta, err = enc.EncodeList(base.source(bd, i))
			i++
		} else {
			term := addTerms[j]
			j++
			var src postings.ListSource // the empty list
			if i < bd.len() && string(bd.key(i)) == term {
				src = base.source(bd, i)
				i++
			}
			out.blob = append(out.blob, term...)
			meta, err = enc.EncodeMerged(src, fb.terms[term], docLen)
		}
		if err != nil {
			return 0, out, fmt.Errorf("index: field %q term %q: %w", field, out.blob[out.offs[len(out.offs)-1]:], err)
		}
		if len(out.blob) > math.MaxUint32 {
			return 0, out, fmt.Errorf("index: field %q dictionary exceeds %d bytes", field, uint32(math.MaxUint32))
		}
		out.add(meta)
	}
	return total, out, nil
}

// source returns term i of d, one of ix's dictionaries, as the encoder
// reads it: its blocks in place, without building the list.
func (ix *Index) source(d *termDict, i int) postings.ListSource {
	meta := d.meta(i)
	return postings.MappedSource(meta, ix.termDir(meta), ix.payload)
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

// align4 pads the section to a 4-byte boundary.
func (s *sectionWriter) align4() {
	for s.off%4 != 0 {
		s.str("\x00")
	}
}

func (s *sectionWriter) bytes(b []byte) {
	if s.flush() == nil {
		_, s.err = s.w.Write(b)
	}
	s.off += int64(len(b))
}

// OpenMapped memory-maps a format-v5 (or v4) index file. The returned
// index shares pages with the OS page cache; Close releases the mapping.
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

// OpenMappedBytes opens a v5 (or v4) image held in memory (tests,
// in-process round-trips). The caller keeps ownership of data, which
// must stay immutable while the index is in use.
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
	version := pf.Header().PayloadVersion
	if version != 4 && version != MappedFormatVersion {
		return nil, fmt.Errorf("index: unsupported paged format version %d (this build reads 4 and %d)", version, MappedFormatVersion)
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
	var termSec []byte
	if version == MappedFormatVersion {
		if termSec, err = need("terms"); err != nil {
			return nil, err
		}
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

	ix := &Index{
		schema:  toc.Schema,
		segSize: toc.SegSize,
		numDocs: toc.NumDocs,
		version: int(version),
		lengths: make(map[string][]int32, len(toc.Lengths)),
		fields:  make(map[string]*fieldIndex, len(toc.Fields)),
		paged:   pf,
		mapping: m,
		cache:   postings.NewBlockCache(cacheBudget),
		stviews: make(map[string]*storedView, len(toc.Stored)),
		quar:    &postings.Quarantine{},
		dir:     dirSec,
		payload: paySec,
	}

	for field, off := range toc.Lengths {
		n := toc.NumDocs
		if off%4 != 0 || !inSection(off, int64(n)*4, len(lenSec)) {
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
		if slab.OffsOff%4 != 0 || !inSection(slab.OffsOff, n*4, len(stSec)) {
			return nil, fmt.Errorf("index: field %q stored offsets outside section", field)
		}
		if !inSection(slab.BlobOff, slab.BlobLen, len(stSec)) {
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
	for field, ft := range toc.Fields {
		if ft.TotalLen < 0 {
			return nil, fmt.Errorf("index: field %q has negative TotalLen %d", field, ft.TotalLen)
		}
		var d termDict
		if version == MappedFormatVersion {
			if d, err = mappedDict(termSec, ft.Dict); err != nil {
				return nil, fmt.Errorf("index: field %q: %w", field, err)
			}
		} else {
			d = dictOf(sortedKeys(ft.Terms), func(term string) postings.MappedListMeta { return ft.Terms[term] })
		}
		if err := ix.checkDict(field, &d); err != nil {
			return nil, err
		}
		ix.fields[field] = &fieldIndex{dict: d, lists: make([]atomic.Pointer[postings.List], d.len()), totalLen: ft.TotalLen}
	}
	return ix, nil
}

// mappedDict returns the dictionary columns slab locates in the "terms"
// section sec, aliasing it.
func mappedDict(sec []byte, slab mappedDictSlab) (termDict, error) {
	n, size := slab.NumTerms, int64(len(sec))
	if n < 0 || n > size/postings.MappedListMetaSize {
		return termDict{}, fmt.Errorf("dictionary of %d terms in a section of %d bytes", n, size)
	}
	offsEnd, recsEnd := slab.OffsOff+(n+1)*4, slab.RecsOff+n*postings.MappedListMetaSize
	if slab.OffsOff%4 != 0 || !inSection(slab.OffsOff, (n+1)*4, len(sec)) ||
		!inSection(slab.RecsOff, n*postings.MappedListMetaSize, len(sec)) || !inSection(slab.BlobOff, slab.BlobLen, len(sec)) {
		return termDict{}, fmt.Errorf("dictionary slab outside section of %d bytes", size)
	}
	return termDict{
		offs: fsx.Uint32s(sec[slab.OffsOff:offsEnd]),
		recs: sec[slab.RecsOff:recsEnd],
		blob: sec[slab.BlobOff : slab.BlobOff+slab.BlobLen],
	}, nil
}

// inSection reports whether the n bytes at off, both read from the
// table of contents, lie within a section of size bytes; it cannot
// overflow.
func inSection(off, n int64, size int) bool {
	return off >= 0 && n >= 0 && off <= int64(size) && n <= int64(size)-off
}

// checkDict validates field's dictionary d in one pass that allocates
// nothing: offsets in order and in range, terms strictly ascending,
// every record well formed, each term's list starting at the directory
// block right after the previous term's — so no two terms share a
// block — and every list's directory (postings.ValidateMappedList).
func (ix *Index) checkDict(field string, d *termDict) error {
	n, totalBlocks := d.len(), len(ix.dir)/postings.BlockDirEntrySize
	if len(d.offs) != n+1 || d.offs[0] != 0 || int64(d.offs[n]) != int64(len(d.blob)) {
		return fmt.Errorf("index: field %q dictionary offsets do not span its blob of %d bytes", field, len(d.blob))
	}
	next := -1
	for i := 0; i < n; i++ {
		if d.offs[i+1] < d.offs[i] || int64(d.offs[i+1]) > int64(len(d.blob)) {
			return fmt.Errorf("index: field %q term %d offsets out of order", field, i)
		}
		term := d.key(i)
		if i > 0 && string(d.key(i-1)) >= string(term) {
			return fmt.Errorf("index: field %q terms %q, %q not strictly ascending", field, d.key(i-1), term)
		}
		meta, ok := postings.MappedListMetaAt(d.recs[i*postings.MappedListMetaSize:])
		if !ok {
			return fmt.Errorf("index: field %q term %q record has reserved bits set", field, term)
		}
		first, nb := int(meta.FirstBlock), int(meta.NumBlocks)
		if next >= 0 && first != next {
			return fmt.Errorf("index: field %q term %q starts at directory block %d, want %d (where the previous term's list ends)", field, term, first, next)
		}
		if first < 0 || nb < 0 || first+nb > totalBlocks {
			return fmt.Errorf("index: field %q term %q directory range [%d, +%d) outside %d blocks", field, term, first, nb, totalBlocks)
		}
		if err := postings.ValidateMappedList(meta, ix.termDir(meta), ix.payload); err != nil {
			return fmt.Errorf("index: field %q term %q: %w", field, term, err)
		}
		if int(meta.N) > ix.numDocs {
			return fmt.Errorf("index: field %q term %q has %d postings for %d documents", field, term, meta.N, ix.numDocs)
		}
		next = first + nb
	}
	return nil
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

// FormatVersion returns the format of the stream the index was read
// from: the paged header's version — MappedFormatVersion for a file
// this build wrote and for every in-process build, 4 for a file an
// older build wrote — or 0 for a gob stream (formats 0–3), which Decode
// turned into an in-memory v5 image.
func (ix *Index) FormatVersion() int { return ix.version }

// Close releases the memory mapping of an index opened from a file.
// The index — and every posting list obtained from it — must not be
// used afterwards. Close also drops the index's own views of the
// mapping — its dictionaries, built lists and their blocks, the block
// cache, the sections, lengths and stored text — so nothing the index
// still references points into the released pages. An index over an
// in-memory image (BuildFrom, Extend, Decode, OpenMappedBytes) ignores
// Close: the garbage collector reclaims its image.
func (ix *Index) Close() error {
	if ix.mapping == nil {
		return nil
	}
	err := ix.mapping.Close()
	ix.paged, ix.cache, ix.dir, ix.payload = nil, nil, nil, nil
	ix.fields, ix.lengths, ix.stviews = nil, nil, nil
	return err
}

// Verify checksums every section of the index's image, including the
// lazy payload sections that open-time validation deliberately skips.
// It reads the whole image; intended for fsck-style audits, not the
// query path.
func (ix *Index) Verify() error {
	return ix.paged.VerifyAll()
}

// BlockCacheStats reports the decoded-block cache's budget, usage and
// hit/miss/eviction counters.
func (ix *Index) BlockCacheStats() postings.BlockCacheStats {
	return ix.cache.Stats()
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
