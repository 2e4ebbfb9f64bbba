package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// Paged container: the random-access sibling of the streaming frame
// above, built for files that are read in place through a memory
// mapping rather than decoded front to back. A paged file is a set of
// named sections, each starting on a page boundary so an mmap-backed
// reader can hand out aligned slices of the raw file, with CRC32-C
// integrity at three granularities: the header, each section, and the
// section table itself. Readers locate the section table through a
// fixed-size footer at the end of the file — a sequential reader
// cannot use this format, which is the point: nothing before the
// footer needs to be touched to open the file.
//
// Layout (all integers little-endian):
//
//	header        magic "CSPAGEv1" | kind u16 | payload version u32 |
//	              page size u32 | header CRC32-C u32, zero-padded to
//	              one page
//	sections      each starts at a page boundary: raw bytes, then zero
//	              padding to the next page boundary
//	section table count u32, then per section:
//	              name len u16 | name | flags u16 | offset u64 |
//	              length u64 | CRC32-C u32
//	footer        32 bytes: table offset u64 | table length u64 |
//	              table CRC32-C u32 | footer CRC32-C u32 (over the
//	              preceding 20 bytes) | end magic "1vEGAPSC"
//
// OpenPaged verifies the header, footer, table, all padding (must be
// zero) and every section's CRC except sections flagged
// SectionLazyVerify, whose checksum the application checks on demand
// (VerifySection) or defers to its own finer-grained checks. Together
// with VerifyAll this makes every byte of the file either CRC-covered
// or required-zero, so any single corruption is detectable.

// PagedMagic identifies a paged container file.
const PagedMagic = "CSPAGEv1"

// pagedEndMagic seals the footer (PagedMagic reversed, so a file
// cannot begin and end with the same 8 bytes by accident).
const pagedEndMagic = "1vEGAPSC"

// DefaultPageSize is the section alignment written by default. 4 KiB
// matches the common CPU page size, so section starts are mappable
// page-aligned and 8-byte payload alignment inside a section holds in
// the file.
const DefaultPageSize = 4096

// MaxPageSize bounds the page size a reader accepts from an untrusted
// header.
const MaxPageSize = 1 << 20

// maxPagedSections bounds the section count a reader accepts; real
// files have a handful.
const maxPagedSections = 1024

// SectionLazyVerify marks a section whose CRC OpenPaged does not
// verify eagerly. The application either calls VerifySection when it
// wants the whole-section scan, or relies on its own per-record
// checksums (the index's per-block CRCs) to catch corruption lazily.
const SectionLazyVerify uint16 = 1

const (
	pagedHeaderLen = 22
	pagedFooterLen = 32
)

// ErrNotPaged reports that a byte slice does not begin with the paged
// container magic.
var ErrNotPaged = fmt.Errorf("snapshot: not a paged container (bad magic)")

// IsPaged reports whether a file beginning with prefix (at least 8
// bytes) is a paged container.
func IsPaged(prefix []byte) bool {
	return len(prefix) >= len(PagedMagic) && string(prefix[:len(PagedMagic)]) == PagedMagic
}

// PagedWriter assembles a paged container onto an io.Writer. Sections
// are written strictly in Begin order; Close emits the table and
// footer. The underlying writer is not closed.
type PagedWriter struct {
	w        io.Writer
	pageSize int
	off      uint64
	secs     []pagedSection
	cur      int // index of the open section, -1 when none
	crc      uint32
	err      error
}

type pagedSection struct {
	name  string
	flags uint16
	off   uint64
	len   uint64
	crc   uint32
}

// NewPagedWriter starts a paged container. pageSize ≤ 0 selects
// DefaultPageSize; tests use small pages to keep fixture files tiny.
// pageSize must be a multiple of 8 and at least the header length.
func NewPagedWriter(w io.Writer, kind uint16, payloadVersion uint32, pageSize int) (*PagedWriter, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pageSize%8 != 0 || pageSize < 32 || pageSize > MaxPageSize {
		return nil, fmt.Errorf("snapshot: invalid page size %d", pageSize)
	}
	pw := &PagedWriter{w: w, pageSize: pageSize, cur: -1}
	var hdr [pagedHeaderLen]byte
	copy(hdr[:8], PagedMagic)
	binary.LittleEndian.PutUint16(hdr[8:10], kind)
	binary.LittleEndian.PutUint32(hdr[10:14], payloadVersion)
	binary.LittleEndian.PutUint32(hdr[14:18], uint32(pageSize))
	binary.LittleEndian.PutUint32(hdr[18:22], crc32.Checksum(hdr[:18], castagnoli))
	if err := pw.emit(hdr[:]); err != nil {
		return nil, err
	}
	return pw, pw.pad()
}

func (pw *PagedWriter) emit(p []byte) error {
	if pw.err != nil {
		return pw.err
	}
	if _, err := pw.w.Write(p); err != nil {
		pw.err = err
		return err
	}
	pw.off += uint64(len(p))
	return nil
}

var pagedZeros [4096]byte

// pad advances the file to the next page boundary with zero bytes.
func (pw *PagedWriter) pad() error {
	rem := int(pw.off % uint64(pw.pageSize))
	if rem == 0 {
		return nil
	}
	n := pw.pageSize - rem
	for n > 0 {
		c := n
		if c > len(pagedZeros) {
			c = len(pagedZeros)
		}
		if err := pw.emit(pagedZeros[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// Begin starts a new named section with the given flags. The previous
// section, if any, is sealed. Section names must be unique.
func (pw *PagedWriter) Begin(name string, flags uint16) error {
	if pw.err != nil {
		return pw.err
	}
	if name == "" || len(name) > 255 {
		return fmt.Errorf("snapshot: invalid section name %q", name)
	}
	for _, s := range pw.secs {
		if s.name == name {
			return fmt.Errorf("snapshot: duplicate section %q", name)
		}
	}
	if err := pw.seal(); err != nil {
		return err
	}
	pw.secs = append(pw.secs, pagedSection{name: name, flags: flags, off: pw.off})
	pw.cur = len(pw.secs) - 1
	return nil
}

// seal finishes the open section: records its length and pads to the
// next page boundary.
func (pw *PagedWriter) seal() error {
	if pw.cur >= 0 {
		s := &pw.secs[pw.cur]
		s.len = pw.off - s.off
		s.crc = pw.crc
		pw.crc = 0
		pw.cur = -1
	}
	return pw.pad()
}

// Write appends bytes to the open section.
func (pw *PagedWriter) Write(p []byte) (int, error) {
	if pw.err != nil {
		return 0, pw.err
	}
	if pw.cur < 0 {
		return 0, fmt.Errorf("snapshot: Write outside a section")
	}
	pw.crc = crc32.Update(pw.crc, castagnoli, p)
	if err := pw.emit(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close seals the last section and writes the table and footer.
func (pw *PagedWriter) Close() error {
	if err := pw.seal(); err != nil {
		return err
	}
	table := make([]byte, 0, 64)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(pw.secs)))
	table = append(table, tmp[:4]...)
	for _, s := range pw.secs {
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(s.name)))
		table = append(table, tmp[:2]...)
		table = append(table, s.name...)
		binary.LittleEndian.PutUint16(tmp[:2], s.flags)
		table = append(table, tmp[:2]...)
		binary.LittleEndian.PutUint64(tmp[:8], s.off)
		table = append(table, tmp[:8]...)
		binary.LittleEndian.PutUint64(tmp[:8], s.len)
		table = append(table, tmp[:8]...)
		binary.LittleEndian.PutUint32(tmp[:4], s.crc)
		table = append(table, tmp[:4]...)
	}
	tableOff := pw.off
	if err := pw.emit(table); err != nil {
		return err
	}
	var foot [pagedFooterLen]byte
	binary.LittleEndian.PutUint64(foot[0:8], tableOff)
	binary.LittleEndian.PutUint64(foot[8:16], uint64(len(table)))
	binary.LittleEndian.PutUint32(foot[16:20], crc32.Checksum(table, castagnoli))
	binary.LittleEndian.PutUint32(foot[20:24], crc32.Checksum(foot[:20], castagnoli))
	copy(foot[24:32], pagedEndMagic)
	return pw.emit(foot[:])
}

// PagedSection describes one section of an opened paged container.
type PagedSection struct {
	Name  string
	Flags uint16
	Data  []byte
	off   uint64
	crc   uint32
}

// PagedFile is an opened, structurally verified paged container. All
// Data slices alias the byte slice given to OpenPaged.
type PagedFile struct {
	hdr      Header
	pageSize int
	secs     []PagedSection
	byName   map[string]int
}

// Header returns the container's kind and payload version.
func (pf *PagedFile) Header() Header { return pf.hdr }

// Section returns the named section's bytes (aliasing the opened
// slice), or ok=false when absent.
func (pf *PagedFile) Section(name string) (data []byte, ok bool) {
	i, ok := pf.byName[name]
	if !ok {
		return nil, false
	}
	return pf.secs[i].Data, true
}

// VerifySection checks the named section's CRC; for sections opened
// lazily this is the deferred whole-section integrity scan.
func (pf *PagedFile) VerifySection(name string) error {
	i, ok := pf.byName[name]
	if !ok {
		return fmt.Errorf("snapshot: no section %q", name)
	}
	s := &pf.secs[i]
	if got := crc32.Checksum(s.Data, castagnoli); got != s.crc {
		return fmt.Errorf("snapshot: section %q checksum mismatch (file corrupt): 0x%08x != 0x%08x", s.Name, got, s.crc)
	}
	return nil
}

// VerifyAll checks every section's CRC, including lazily opened ones.
// OpenPaged + VerifyAll is a full integrity scan of a paged file.
func (pf *PagedFile) VerifyAll() error {
	for i := range pf.secs {
		if err := pf.VerifySection(pf.secs[i].Name); err != nil {
			return err
		}
	}
	return nil
}

// OpenPaged parses and verifies a paged container held in data
// (typically a memory mapping). Sections without SectionLazyVerify are
// checksum-verified now; lazy sections defer to VerifySection or the
// application's per-record checks. Padding bytes must be zero, so a
// bit flip anywhere in the file is caught by exactly one of: header
// CRC, section CRC (possibly deferred), table CRC, footer CRC, or the
// padding scan.
func OpenPaged(data []byte) (*PagedFile, error) {
	if !IsPaged(data) {
		return nil, ErrNotPaged
	}
	if len(data) < pagedHeaderLen+pagedFooterLen {
		return nil, fmt.Errorf("snapshot: paged file truncated at %d bytes", len(data))
	}
	wantHdr := binary.LittleEndian.Uint32(data[18:22])
	if got := crc32.Checksum(data[:18], castagnoli); got != wantHdr {
		return nil, fmt.Errorf("snapshot: paged header checksum mismatch (file corrupt): 0x%08x != 0x%08x", got, wantHdr)
	}
	pf := &PagedFile{
		hdr: Header{
			Kind:           binary.LittleEndian.Uint16(data[8:10]),
			PayloadVersion: binary.LittleEndian.Uint32(data[10:14]),
		},
		pageSize: int(binary.LittleEndian.Uint32(data[14:18])),
		byName:   make(map[string]int),
	}
	if pf.pageSize < 32 || pf.pageSize > MaxPageSize || pf.pageSize%8 != 0 {
		return nil, fmt.Errorf("snapshot: paged header claims page size %d: corrupt", pf.pageSize)
	}
	foot := data[len(data)-pagedFooterLen:]
	if string(foot[24:32]) != pagedEndMagic {
		return nil, fmt.Errorf("snapshot: paged footer magic missing (file truncated or corrupt)")
	}
	if got, want := crc32.Checksum(foot[:20], castagnoli), binary.LittleEndian.Uint32(foot[20:24]); got != want {
		return nil, fmt.Errorf("snapshot: paged footer checksum mismatch (file corrupt): 0x%08x != 0x%08x", got, want)
	}
	tableOff := binary.LittleEndian.Uint64(foot[0:8])
	tableLen := binary.LittleEndian.Uint64(foot[8:16])
	fileLen := uint64(len(data))
	if tableOff > fileLen || tableLen > fileLen-tableOff || tableOff+tableLen != fileLen-pagedFooterLen {
		return nil, fmt.Errorf("snapshot: paged table bounds [%d, +%d) inconsistent with file length %d", tableOff, tableLen, fileLen)
	}
	table := data[tableOff : tableOff+tableLen]
	if got, want := crc32.Checksum(table, castagnoli), binary.LittleEndian.Uint32(foot[16:20]); got != want {
		return nil, fmt.Errorf("snapshot: paged table checksum mismatch (file corrupt): 0x%08x != 0x%08x", got, want)
	}
	if len(table) < 4 {
		return nil, fmt.Errorf("snapshot: paged table truncated")
	}
	count := binary.LittleEndian.Uint32(table[:4])
	if count > maxPagedSections {
		return nil, fmt.Errorf("snapshot: paged table claims %d sections (max %d)", count, maxPagedSections)
	}
	table = table[4:]
	prevEnd := uint64(pf.pageSize) // sections start after the header page
	for i := 0; i < int(count); i++ {
		if len(table) < 2 {
			return nil, fmt.Errorf("snapshot: paged table entry %d truncated", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(table[:2]))
		table = table[2:]
		if len(table) < nameLen+22 {
			return nil, fmt.Errorf("snapshot: paged table entry %d truncated", i)
		}
		s := PagedSection{
			Name:  string(table[:nameLen]),
			Flags: binary.LittleEndian.Uint16(table[nameLen : nameLen+2]),
		}
		off := binary.LittleEndian.Uint64(table[nameLen+2 : nameLen+10])
		slen := binary.LittleEndian.Uint64(table[nameLen+10 : nameLen+18])
		s.crc = binary.LittleEndian.Uint32(table[nameLen+18 : nameLen+22])
		table = table[nameLen+22:]
		// Sections must be in file order, page-aligned, non-overlapping
		// and inside [header page, table).
		if off%uint64(pf.pageSize) != 0 || off < prevEnd || off > tableOff || slen > tableOff-off {
			return nil, fmt.Errorf("snapshot: section %q bounds [%d, +%d) corrupt", s.Name, off, slen)
		}
		if _, dup := pf.byName[s.Name]; dup {
			return nil, fmt.Errorf("snapshot: duplicate section %q", s.Name)
		}
		s.off = off
		s.Data = data[off : off+slen]
		pf.byName[s.Name] = len(pf.secs)
		pf.secs = append(pf.secs, s)
		prevEnd = off + slen
	}
	if len(table) != 0 {
		return nil, fmt.Errorf("snapshot: paged table has %d trailing bytes", len(table))
	}
	// Padding scan: every byte outside header/sections/table/footer must
	// be zero. Gaps are bounded by (sections+1) pages, so this is cheap
	// relative to one section CRC.
	if err := verifyPagedPadding(data, pf, tableOff); err != nil {
		return nil, err
	}
	for i := range pf.secs {
		if pf.secs[i].Flags&SectionLazyVerify != 0 {
			continue
		}
		if err := pf.VerifySection(pf.secs[i].Name); err != nil {
			return nil, err
		}
	}
	return pf, nil
}

// verifyPagedPadding checks that every alignment-padding byte is zero,
// so corruption in the gaps between CRC-covered regions cannot hide.
func verifyPagedPadding(data []byte, pf *PagedFile, tableOff uint64) error {
	type span struct{ off, end uint64 }
	covered := make([]span, 0, len(pf.secs)+2)
	covered = append(covered, span{0, pagedHeaderLen})
	for i := range pf.secs {
		s := &pf.secs[i]
		covered = append(covered, span{s.off, s.off + uint64(len(s.Data))})
	}
	covered = append(covered, span{tableOff, uint64(len(data))})
	sort.Slice(covered, func(a, b int) bool { return covered[a].off < covered[b].off })
	pos := uint64(0)
	for _, sp := range covered {
		for ; pos < sp.off; pos++ {
			if data[pos] != 0 {
				return fmt.Errorf("snapshot: nonzero padding byte at offset %d (file corrupt)", pos)
			}
		}
		if sp.end > pos {
			pos = sp.end
		}
	}
	for ; pos < uint64(len(data)); pos++ {
		if data[pos] != 0 {
			return fmt.Errorf("snapshot: nonzero padding byte at offset %d (file corrupt)", pos)
		}
	}
	return nil
}
