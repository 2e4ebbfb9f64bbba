package views

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"csrank/internal/fsx"
	"csrank/internal/snapshot"
)

// Catalog format v3: a paged container (snapshot.PagedMagic) whose
// group tables are read in place from a memory mapping. Opening a v3
// file decodes only the directory and builds each view's keyword and
// word lookups, membership bitsets and pattern order; count, length and
// every word column alias the file. A view's columns are checksummed
// and validated on its first use (View.verified), not at open.
//
// Sections (page-aligned, CRC32-C checksummed by the container):
//
//	"cols"  every view's slab, 8-aligned and back to back (lazy: each
//	        slab carries its own CRC32-C in "dir", checked on first use;
//	        snapshot.PagedFile.VerifyAll checks the whole section)
//	"dir"   T_C i64 | T_V i64 | views u32, then per view:
//	        |K| u32 | K as (len u32 | bytes) | tracked u32 | tracked as
//	        (len u32 | bytes) | rows u32 | slab offset u64 | slab CRC u32 |
//	        one entry count u32 per tracked word   (verified at open)
//
// A slab holds, raw little-endian, count [rows]i64, length [rows]i64,
// then per tracked word its DF [n]i64 and TC [n]i64, then per tracked
// word its Rows [n]u32, zero-padded to 8 bytes, then the packed
// patterns [rows·⌈|K|/8⌉]byte, zero-padded to 8 bytes. Every column's
// offset follows from rows, |K| and the entry counts.
const CatalogFormatVersion = 3

const (
	sectionCols = "cols"
	sectionDir  = "dir"
)

// ErrCorrupt marks a catalog payload that parses but cannot describe a
// view — a pattern of the wrong width, a row reference past the table, an
// aggregate no group-by over real documents produces. Loading fails with
// it (a format-v3 view fails its first-use check with it) rather than
// handing queries a table they would index out of range.
var ErrCorrupt = errors.New("views: corrupt catalog")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SaveFile writes the catalog to path in format v3 with an atomic
// write-to-temp + fsync + rename protocol: a crash at any instant leaves
// either the previous file or the complete new one. Quarantined views
// are not written.
func (c *Catalog) SaveFile(path string) error {
	return c.SaveFileFS(fsx.OS, path)
}

// SaveFileFS is SaveFile against an explicit filesystem (fault-injection
// tests substitute a crashing one).
func (c *Catalog) SaveFileFS(fs fsx.FS, path string) error {
	return fsx.WriteFileAtomic(fs, path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		if err := c.writePaged(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// LoadFile opens a catalog file: format v3 from a memory mapping the
// catalog holds until Close, and the framed v2 and v1 or raw v1 files
// older builds wrote decoded onto the heap.
func LoadFile(path string) (*Catalog, error) {
	return LoadFileFS(fsx.OS, path)
}

// LoadFileFS is LoadFile against an explicit filesystem.
func LoadFileFS(fs fsx.FS, path string) (*Catalog, error) {
	m, err := fsx.MapFile(fs, path)
	if err != nil {
		return nil, err
	}
	if !snapshot.IsPaged(m.Data) {
		defer m.Close()
		return decodeLegacy(bytes.NewReader(m.Data))
	}
	c, err := openPaged(m.Data)
	if err != nil {
		m.Close()
		return nil, err
	}
	c.m = m
	return c, nil
}

// Close releases the mapping a format-v3 catalog serves from; no view
// of the catalog may be read afterwards. It is a no-op for a catalog on
// the heap, and safe to call more than once.
func (c *Catalog) Close() error {
	if c.m == nil {
		return nil
	}
	return c.m.Close()
}

// writePaged writes the catalog's serving views as format v3: the slabs
// go into "cols" while the directory that locates them accumulates,
// then the directory follows.
func (c *Catalog) writePaged(w io.Writer) error {
	pw, err := snapshot.NewPagedWriter(w, snapshot.KindViews, CatalogFormatVersion, 0)
	if err != nil {
		return err
	}
	if err := pw.Begin(sectionCols, snapshot.SectionLazyVerify); err != nil {
		return err
	}
	vs := c.serving()
	dir := binary.LittleEndian.AppendUint64(nil, uint64(c.ContextThreshold))
	dir = binary.LittleEndian.AppendUint64(dir, uint64(c.ViewSizeLimit))
	dir = binary.LittleEndian.AppendUint32(dir, uint32(len(vs)))
	var off uint64
	for _, v := range vs {
		slab, rows := v.encodeSlab()
		if _, err := pw.Write(slab); err != nil {
			return err
		}
		dir = appendNames(dir, v.k)
		dir = appendNames(dir, v.tracked)
		dir = binary.LittleEndian.AppendUint32(dir, uint32(rows))
		dir = binary.LittleEndian.AppendUint64(dir, off)
		dir = binary.LittleEndian.AppendUint32(dir, crc32.Checksum(slab, castagnoli))
		for j := range v.cols {
			dir = binary.LittleEndian.AppendUint32(dir, uint32(len(v.cols[j].Rows)))
		}
		off += uint64(len(slab))
	}
	if err := pw.Begin(sectionDir, 0); err != nil {
		return err
	}
	if _, err := pw.Write(dir); err != nil {
		return err
	}
	return pw.Close()
}

func appendNames(b []byte, names []string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
	for _, s := range names {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	return b
}

// encodeSlab lays out the view's slab without the rows Remove emptied
// and returns it with the row count. The remaining rows keep their
// relative order under the renumbering, so the word columns stay
// ascending.
func (v *View) encodeSlab() (slab []byte, rows int) {
	renumber := make([]uint32, len(v.count))
	var count, length []int64
	var pat []byte
	for r, n := range v.count {
		if n > 0 {
			renumber[r] = uint32(len(count))
			count = append(count, n)
			length = append(length, v.length[r])
			pat = append(pat, v.pattern(r)...)
		}
	}
	entries := 0
	for j := range v.cols {
		entries += len(v.cols[j].Rows)
	}
	slab = make([]byte, 0, 16*len(count)+20*entries+len(pat)+16)
	int64s := func(xs []int64) {
		for _, x := range xs {
			slab = binary.LittleEndian.AppendUint64(slab, uint64(x))
		}
	}
	pad8 := func() {
		for len(slab)%8 != 0 {
			slab = append(slab, 0)
		}
	}
	int64s(count)
	int64s(length)
	for j := range v.cols {
		int64s(v.cols[j].DF)
		int64s(v.cols[j].TC)
	}
	for j := range v.cols {
		for _, r := range v.cols[j].Rows {
			slab = binary.LittleEndian.AppendUint32(slab, renumber[r])
		}
	}
	pad8()
	slab = append(slab, pat...)
	pad8()
	return slab, len(count)
}

// openPaged opens a format-v3 catalog held in data, which the views
// alias and which must outlive them.
func openPaged(data []byte) (*Catalog, error) {
	pf, err := snapshot.OpenPaged(data)
	if err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}
	if h := pf.Header(); h.Kind != snapshot.KindViews || h.PayloadVersion != CatalogFormatVersion {
		return nil, fmt.Errorf("views: paged file holds kind %d version %d, want kind %d (views) version %d",
			h.Kind, h.PayloadVersion, snapshot.KindViews, CatalogFormatVersion)
	}
	cols, ok1 := pf.Section(sectionCols)
	dirBytes, ok2 := pf.Section(sectionDir)
	if !ok1 || !ok2 {
		return nil, corruptf("format v3 file lacks its %q or %q section", sectionCols, sectionDir)
	}
	// One string holds every name: K and tracked words are substrings of
	// it, so the directory costs one allocation for all of them.
	d := &dirReader{s: string(dirBytes)}
	tc, tv, n := int64(d.u64()), int64(d.u64()), d.u32()
	var vs []*View
	for i := 0; i < n && d.err == nil; i++ {
		v, err := d.view(cols)
		if err != nil {
			return nil, fmt.Errorf("views: view %d: %w", i, err)
		}
		vs = append(vs, v)
	}
	if d.err == nil && len(d.s) != 0 {
		d.err = corruptf("directory has %d trailing bytes", len(d.s))
	}
	if d.err != nil {
		return nil, fmt.Errorf("views: %w", d.err)
	}
	return NewCatalog(vs, tc, int(tv)), nil
}

// dirReader consumes the "dir" section; the first short read sets err
// and every later read returns zero.
type dirReader struct {
	s   string
	err error
}

func (d *dirReader) take(n int) string {
	if d.err == nil && n > len(d.s) {
		d.err = corruptf("directory truncated")
	}
	if d.err != nil {
		return ""
	}
	out := d.s[:n]
	d.s = d.s[n:]
	return out
}

func (d *dirReader) u32() int {
	b := d.take(4)
	if b == "" {
		return 0
	}
	return int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
}

func (d *dirReader) u64() uint64 {
	lo, hi := d.u32(), d.u32()
	return uint64(lo) | uint64(hi)<<32
}

func (d *dirReader) names() []string {
	n := d.u32()
	if n > len(d.s)/4 { // every name needs at least its length
		d.take(len(d.s) + 1) // fails the reader
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.take(d.u32())
	}
	return out
}

// view reads one view's directory entry and aliases its slab in cols.
// Only the directory is validated here; the slab's contents wait for
// the view's first use.
func (d *dirReader) view(cols []byte) (*View, error) {
	k, tracked := d.names(), d.names()
	rows, off, crc := d.u32(), d.u64(), uint32(d.u32())
	nnz := make([]int, len(tracked))
	for j := range nnz {
		nnz[j] = d.u32()
	}
	if d.err != nil {
		return nil, d.err
	}
	v, err := decodedView(k, tracked)
	if err != nil {
		return nil, err
	}
	for _, n := range nnz {
		if n > rows {
			return nil, corruptf("column has %d entries for %d rows", n, rows)
		}
	}
	size, ok := slabSize(rows, v.pw, nnz, uint64(len(cols))-min(off, uint64(len(cols))))
	if !ok || off%8 != 0 || off > uint64(len(cols)) {
		return nil, corruptf("slab at %d is not 8-aligned or does not fit the %d-byte column section", off, len(cols))
	}
	slab := cols[off : off+size : off+size]
	at := 0
	next := func(n int) []byte {
		b := slab[at : at+n : at+n]
		at += n
		return b
	}
	v.count, v.length = fsx.Int64s(next(rows*8)), fsx.Int64s(next(rows*8))
	for j, n := range nnz {
		v.cols[j].DF, v.cols[j].TC = fsx.Int64s(next(n*8)), fsx.Int64s(next(n*8))
	}
	for j, n := range nnz {
		v.cols[j].Rows = fsx.Uint32s(next(n * 4))
	}
	at = int(align8(uint64(at)))
	v.pat = next(rows * v.pw)
	v.file = &fileState{slab: slab, crc: crc}
	v.live = rows
	v.index()
	return v, nil
}

// slabSize returns the byte length of a slab of rows rows, pw pattern
// bytes per row and nnz entries per word column, and whether it fits in
// avail bytes. Every addend is checked against avail before the next is
// added, so no hostile count can overflow the sum.
func slabSize(rows, pw int, nnz []int, avail uint64) (uint64, bool) {
	size := uint64(rows) * 16
	for _, n := range nnz {
		if size > avail {
			return 0, false
		}
		size += uint64(n) * 20 // df, tc and the row number
	}
	if size > avail || pw > 0 && uint64(rows) > avail/uint64(pw) {
		return 0, false
	}
	var rowBytes uint64
	for _, n := range nnz {
		rowBytes += uint64(n) * 4
	}
	size += align8(rowBytes) - rowBytes + align8(uint64(rows*pw))
	return size, size <= avail
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// checkSlab is a format-v3 view's first-use check: the slab's
// checksum, then the rules validate enforces.
func (v *View) checkSlab() error {
	if got := crc32.Checksum(v.file.slab, castagnoli); got != v.file.crc {
		return corruptf("column checksum mismatch (file corrupt): 0x%08x != 0x%08x", got, v.file.crc)
	}
	return v.validate()
}

// validate checks a table read from a file whose pattern index
// (View.index) is built: no pattern sets a bit past |K| or appears twice,
// every column's rows are ascending and inside the table, and the
// aggregates pass checkAggregates. Apply, Remove and Answer rely on all
// of it.
func (v *View) validate() error {
	for r := range v.count {
		if err := v.checkPattern(v.pattern(r)); err != nil {
			return err
		}
	}
	for i := 1; i < len(v.order); i++ {
		if p := v.pattern(int(v.order[i])); bytes.Equal(v.pattern(int(v.order[i-1])), p) {
			return corruptf("group pattern %x appears twice", p)
		}
	}
	for j, c := range v.cols {
		if len(c.DF) != len(c.Rows) || len(c.TC) != len(c.Rows) {
			return corruptf("column %q has %d rows, %d df, %d tc", v.tracked[j], len(c.Rows), len(c.DF), len(c.TC))
		}
		for i, r := range c.Rows {
			if int(r) >= len(v.count) || i > 0 && r <= c.Rows[i-1] {
				return corruptf("column %q: row %d at entry %d is past the %d rows or not ascending", v.tracked[j], r, i, len(v.count))
			}
		}
	}
	return v.checkAggregates()
}

// checkPattern rejects a pattern with bits set past |K|: Apply and
// Remove could never find its row again.
func (v *View) checkPattern(pat []byte) error {
	if used := len(v.k) % 8; used != 0 && pat[v.pw-1]>>used != 0 {
		return corruptf("group pattern %x sets bits past |K| = %d", pat, len(v.k))
	}
	return nil
}

// checkAggregates validates a decoded view's aggregates: every group has
// a positive count and a non-negative length, every column entry df ≥ 1
// and tc ≥ 0, and each column's total fits int64 — so no Answer, a sum
// over a subset of non-negative entries, can overflow. A negative or
// wrapped value can only be corruption and would silently poison every
// ranking that consults the view.
func (v *View) checkAggregates() error {
	check := func(what string, xs []int64, floor int64) error {
		var total int64
		for i, x := range xs {
			if x < floor {
				return corruptf("%s[%d] = %d, want ≥ %d", what, i, x, floor)
			}
			if total += x; total < 0 {
				return corruptf("%s sums past int64", what)
			}
		}
		return nil
	}
	err := errors.Join(check("count", v.count, 1), check("len", v.length, 0))
	for j, w := range v.tracked {
		err = errors.Join(err, check("df of "+w, v.cols[j].DF, 1), check("tc of "+w, v.cols[j].TC, 0))
	}
	return err
}
