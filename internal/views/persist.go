package views

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"unsafe"

	"csrank/internal/fsx"
	"csrank/internal/snapshot"
)

// Catalog format v4: a paged container (snapshot.PagedMagic) whose
// group tables are read in place from a memory mapping. Opening a file
// decodes only the directory and builds each view's keyword and word
// lookups, membership bitsets and pattern order; every column aliases
// the file. A view's columns are checksummed and validated on its first
// use (View.verified), not at open.
//
// Sections (page-aligned, CRC32-C checksummed by the container):
//
//	"cols"  every view's slab, 8-aligned and back to back (lazy: each
//	        slab carries its own CRC32-C in "dir", checked on first use;
//	        snapshot.PagedFile.VerifyAll checks the whole section)
//	"dir"   T_C i64 | T_V i64 | views u32, then per view:
//	        |K| u32 | K as (len u32 | bytes) | tracked u32 | tracked as
//	        (len u32 | bytes) | rows u32 | slab offset u64 | slab CRC u32 |
//	        widths of count, length, DF, TC and row ids u8 ×5 |
//	        one entry count u32 per tracked word   (verified at open)
//
// A slab holds, raw little-endian, count [rows], length [rows], then per
// tracked word its DF [n] and TC [n], then per tracked word its row ids
// [n], zero-padded to 8 bytes, then the packed patterns
// [rows·⌈|K|/8⌉]byte, zero-padded to 8 bytes. Each column family has
// one width, 1, 2, 4 or 8 bytes, the narrowest its largest value fits
// (the row ids' is the narrowest that fits rows−1), and each column
// starts at a multiple of its own width, zero-padded up to it. Every
// column's offset follows from rows, |K|, the widths and the entry
// counts (View.layout).
//
// Format v3 is the same container and slab with every width fixed —
// count, length, DF and TC 8 bytes, row ids 4 — and no widths in "dir".
// It is still read; only v4 is written.
const CatalogFormatVersion = 4

// v3Widths are the column widths of every catalog format v3 slab.
var v3Widths = widths{count: 8, length: 8, df: 8, tc: 8, row: 4}

const (
	sectionCols = "cols"
	sectionDir  = "dir"
)

// ErrCorrupt marks a catalog payload that parses but cannot describe a
// view — a pattern of the wrong width, a row reference past the table, an
// aggregate no group-by over real documents produces. Loading fails with
// it (a view read from a paged file fails its first-use check with it)
// rather than handing queries a table they would index out of range.
var ErrCorrupt = errors.New("views: corrupt catalog")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SaveFile writes the catalog to path in format v4 with an atomic
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

// LoadFile opens a catalog file: format v4 or v3 from a memory mapping
// the catalog holds until Close, and the framed v2 and v1 or raw v1
// files older builds wrote decoded onto the heap.
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

// Close releases the mapping a paged catalog serves from; no view
// of the catalog may be read afterwards. It is a no-op for a catalog on
// the heap, and safe to call more than once.
func (c *Catalog) Close() error {
	if c.m == nil {
		return nil
	}
	return c.m.Close()
}

// writePaged writes the catalog's serving views as format v4: the slabs
// go into "cols" while the directory that locates them accumulates,
// then the directory follows. A slab is written as the view holds it, at
// its widths (a view read from a format-v3 file keeps v3's).
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
		if _, err := pw.Write(v.slab); err != nil {
			return err
		}
		dir = appendNames(dir, v.k)
		dir = appendNames(dir, v.tracked)
		dir = binary.LittleEndian.AppendUint32(dir, uint32(v.rows))
		dir = binary.LittleEndian.AppendUint64(dir, off)
		dir = binary.LittleEndian.AppendUint32(dir, crc32.Checksum(v.slab, castagnoli))
		dir = append(dir, byte(v.w.count), byte(v.w.length), byte(v.w.df), byte(v.w.tc), byte(v.w.row))
		for _, c := range v.cols {
			dir = binary.LittleEndian.AppendUint32(dir, uint32(c.n))
		}
		off += uint64(len(v.slab))
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

// table is a group table in int64 scratch, the input of View.pack: per
// row its pattern, count and length, and per tracked word its entries.
type table struct {
	pat           []byte
	count, length []int64
	cols          []entries
}

// entries is one tracked word's sparse column in int64 scratch: its
// rows, ascending, and the df and tc of each. Catalog format v2 stored
// it as it is.
type entries struct {
	Rows   []uint32
	DF, TC []int64
}

// pack lays the table out as a heap slab at the narrowest widths that
// hold its values, points the view's columns at it and builds the
// view's pattern index. No value is truncated: a width follows from its
// family's largest value, and a negative one takes width 8, where
// checkAggregates sees its sign.
func (v *View) pack(t *table) {
	v.rows = len(t.count)
	v.w = widths{count: widthOf(t.count...), length: widthOf(t.length...), df: 1, tc: 1}
	nnz, maxRow := make([]int, len(t.cols)), uint32(max(v.rows-1, 0))
	for j, c := range t.cols {
		nnz[j] = len(c.Rows)
		for _, r := range c.Rows {
			maxRow = max(maxRow, r)
		}
		v.w.df, v.w.tc = max(v.w.df, widthOf(c.DF...)), max(v.w.tc, widthOf(c.TC...))
	}
	v.w.row = widthOf(int64(maxRow))
	patAt, size, _ := v.layout(nnz, math.MaxInt)
	// Allocated as words, so the slab is 8-aligned like a mapped one.
	words := make([]uint64, size/8)
	v.slab = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), size)
	count, length := v.countCol(), v.lengthCol()
	for r := range v.rows {
		count.put(r, t.count[r])
		length.put(r, t.length[r])
	}
	for j, c := range t.cols {
		rows, df, tc := v.wordCols(j)
		for i, r := range c.Rows {
			rows.put(i, int64(r))
			df.put(i, c.DF[i])
			tc.put(i, c.TC[i])
		}
	}
	v.pat = v.slab[patAt : patAt+len(t.pat)]
	copy(v.pat, t.pat)
	v.index()
}

// widthOf returns the narrowest width, 1, 2, 4 or 8 bytes, that holds
// every value of xs: 8 if any is negative.
func widthOf(xs ...int64) int {
	var m int64
	for _, x := range xs {
		if x < 0 {
			return 8
		}
		m = max(m, x)
	}
	switch {
	case m <= math.MaxUint8:
		return 1
	case m <= math.MaxUint16:
		return 2
	case m <= math.MaxUint32:
		return 4
	}
	return 8
}

// layout places the columns of a slab of v.rows rows, v.pw pattern bytes
// a row, widths v.w and nnz[j] entries in word column j, recording each
// column's offset in v. It returns the patterns' offset and the slab's
// size, and whether the slab fits in avail bytes. Every addend is
// checked against avail before the next is added, so no hostile count
// can overflow the sum.
func (v *View) layout(nnz []int, avail int) (patAt, size int, ok bool) {
	at, ok := 0, true
	place := func(n, width, align int) int {
		off := (at + align - 1) &^ (align - 1)
		hi, lo := bits.Mul64(uint64(n), uint64(width))
		if !ok || off > avail || hi != 0 || lo > uint64(avail-off) {
			ok = false
			return 0
		}
		at = off + int(lo)
		return off
	}
	place(v.rows, v.w.count, v.w.count)
	v.lengthAt = place(v.rows, v.w.length, v.w.length)
	for j, n := range nnz {
		v.cols[j].n = n
		v.cols[j].df = place(n, v.w.df, v.w.df)
		v.cols[j].tc = place(n, v.w.tc, v.w.tc)
	}
	for j, n := range nnz {
		v.cols[j].row = place(n, v.w.row, v.w.row)
	}
	patAt = place(v.rows, v.pw, 8)
	size = place(0, 0, 8)
	return patAt, size, ok
}

// openPaged opens a format-v4 or v3 catalog held in data, which the
// views alias and which must outlive them.
func openPaged(data []byte) (*Catalog, error) {
	pf, err := snapshot.OpenPaged(data)
	if err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}
	h := pf.Header()
	if h.Kind != snapshot.KindViews || h.PayloadVersion != 3 && h.PayloadVersion != CatalogFormatVersion {
		return nil, fmt.Errorf("views: paged file holds kind %d version %d, want kind %d (views) version 3 or %d",
			h.Kind, h.PayloadVersion, snapshot.KindViews, CatalogFormatVersion)
	}
	cols, ok1 := pf.Section(sectionCols)
	dirBytes, ok2 := pf.Section(sectionDir)
	if !ok1 || !ok2 {
		return nil, corruptf("paged catalog lacks its %q or %q section", sectionCols, sectionDir)
	}
	// One string holds every name: K and tracked words are substrings of
	// it, so the directory costs one allocation for all of them.
	d := &dirReader{s: string(dirBytes), widths: h.PayloadVersion >= 4}
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
// and every later read returns zero. widths reports whether the entries
// carry column widths (format v4).
type dirReader struct {
	s      string
	widths bool
	err    error
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
	w := v3Widths
	if d.widths {
		if b := d.take(5); b != "" {
			w = widths{count: int(b[0]), length: int(b[1]), df: int(b[2]), tc: int(b[3]), row: int(b[4])}
		}
	}
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
	for _, x := range []int{w.count, w.length, w.df, w.tc, w.row} {
		if x != 1 && x != 2 && x != 4 && x != 8 {
			return nil, corruptf("column width %d is not 1, 2, 4 or 8 bytes", x)
		}
	}
	if w.row < 8 && rows > 1<<(8*w.row) {
		return nil, corruptf("%d-byte row ids cannot number %d rows", w.row, rows)
	}
	for _, n := range nnz {
		if n > rows {
			return nil, corruptf("column has %d entries for %d rows", n, rows)
		}
	}
	v.rows, v.w = rows, w
	patAt, size, ok := v.layout(nnz, len(cols)-int(min(off, uint64(len(cols)))))
	if !ok || off%8 != 0 || off > uint64(len(cols)) {
		return nil, corruptf("slab at %d is not 8-aligned or does not fit the %d-byte column section", off, len(cols))
	}
	v.slab = cols[off : int(off)+size : int(off)+size]
	v.pat = v.slab[patAt : patAt+rows*v.pw]
	v.file = &fileState{crc: crc}
	v.index()
	return v, nil
}

// checkSlab is a file view's first-use check: the slab's checksum, then
// the rules validate enforces.
func (v *View) checkSlab() error {
	if got := crc32.Checksum(v.slab, castagnoli); got != v.file.crc {
		return corruptf("column checksum mismatch (file corrupt): 0x%08x != 0x%08x", got, v.file.crc)
	}
	return v.validate()
}

// validate checks a table whose pattern index (View.index) is built: no
// pattern sets a bit past |K| or appears twice, every column's rows are
// ascending and inside the table, and the aggregates pass
// checkAggregates. Answer relies on all of it.
func (v *View) validate() error {
	for r := range v.rows {
		if used := len(v.k) % 8; used != 0 && v.pattern(r)[v.pw-1]>>used != 0 {
			return corruptf("group pattern %x sets bits past |K| = %d", v.pattern(r), len(v.k))
		}
	}
	for i := 1; i < len(v.order); i++ {
		if p := v.pattern(int(v.order[i])); bytes.Equal(v.pattern(int(v.order[i-1])), p) {
			return corruptf("group pattern %x appears twice", p)
		}
	}
	for j := range v.cols {
		rows, _, _ := v.wordCols(j)
		prev := int64(-1)
		for i := range v.cols[j].n {
			r := rows.at(i)
			if r <= prev || r >= int64(v.rows) {
				return corruptf("column %q: row %d at entry %d is past the %d rows or not ascending", v.tracked[j], r, i, v.rows)
			}
			prev = r
		}
	}
	return v.checkAggregates()
}

// checkAggregates validates a decoded view's aggregates: every group has
// a positive count and a non-negative length, every column entry df ≥ 1
// and tc ≥ 0, and each column's total fits int64 — so no Answer, a sum
// over a subset of non-negative entries, can overflow. A negative or
// wrapped value can only be corruption and would silently poison every
// ranking that consults the view.
func (v *View) checkAggregates() error {
	check := func(what string, c column, floor int64) error {
		var total int64
		for i := range len(c.b) / c.w {
			x := c.at(i)
			if x < floor {
				return corruptf("%s[%d] = %d, want ≥ %d", what, i, x, floor)
			}
			if total += x; total < 0 {
				return corruptf("%s sums past int64", what)
			}
		}
		return nil
	}
	err := errors.Join(check("count", v.countCol(), 1), check("len", v.lengthCol(), 0))
	for j, w := range v.tracked {
		_, df, tc := v.wordCols(j)
		err = errors.Join(err, check("df of "+w, df, 1), check("tc of "+w, tc, 0))
	}
	return err
}
