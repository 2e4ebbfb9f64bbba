// Package snapshot implements the two checksummed containers files are
// read from. The paged container (paged.go) is the one every writer
// emits: the index (format v5) and the view catalog (format v3) are
// read in place from a memory mapping. The framed stream below is
// read-only: index files of formats v0–v3 and catalog files of formats
// v1–v2 that older builds wrote are wrapped in it, so every way such a
// file can rot — truncation, a torn write, a flipped bit, a foreign
// file — is detected at load time with a precise error instead of a gob
// panic or a silently wrong index.
//
// Framed layout (all integers little-endian):
//
//	magic            8 bytes  "CSSNAPv1"
//	kind             uint16   payload type (index, views, ...)
//	payload version  uint32   app-level format version of the payload
//	header CRC       uint32   CRC32-C of the 14 header bytes above
//	sections         repeated { length uint32 (>0) | CRC32-C uint32 | bytes }
//	trailer          length 0 | CRC32-C of every preceding byte of the file
//
// Sections bound the blast radius of a checksum failure (the error names
// the section) and let the reader verify data before handing any of it
// to the decoder; the trailer sentinel distinguishes "file ends here by
// design" from truncation at a section boundary, and its whole-file CRC
// catches reordered or duplicated sections.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies a framed snapshot file.
const Magic = "CSSNAPv1"

// Payload kinds.
const (
	KindIndex uint16 = 1
	KindViews uint16 = 2
)

// MaxSectionSize caps the section length a reader accepts, so a
// corrupted length field cannot demand an absurd allocation.
const MaxSectionSize = 16 << 20

// ErrNotSnapshot reports that the stream does not begin with the
// snapshot magic — typically a legacy raw-gob file, which callers fall
// back to.
var ErrNotSnapshot = errors.New("snapshot: not a framed snapshot (bad magic)")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is the decoded snapshot header.
type Header struct {
	Kind           uint16
	PayloadVersion uint32
}

// IsFramed reports whether a file beginning with prefix (at least 8
// bytes) is a framed snapshot.
func IsFramed(prefix []byte) bool {
	return len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic
}

// Reader verifies and unwraps a framed snapshot. Each section's checksum
// is verified before any of its bytes are surfaced, so the consumer
// never decodes corrupt data.
type Reader struct {
	r       *bufio.Reader
	hdr     Header
	section []byte
	pos     int
	fileCRC uint32
	done    bool
	err     error
	nsec    int
}

// NewReader consumes and verifies the header. A stream without the
// snapshot magic returns ErrNotSnapshot with nothing consumed beyond
// what peeking required, if r supports it; callers that need legacy
// fallback should buffer the stream themselves and sniff with IsFramed.
func NewReader(r io.Reader) (*Reader, error) {
	sr := &Reader{r: bufio.NewReaderSize(r, 1<<20)}
	var hdr [18]byte
	if _, err := io.ReadFull(sr.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: truncated header: %w", err)
	}
	if !IsFramed(hdr[:]) {
		return nil, ErrNotSnapshot
	}
	want := binary.LittleEndian.Uint32(hdr[14:18])
	if got := crc32.Checksum(hdr[:14], castagnoli); got != want {
		return nil, fmt.Errorf("snapshot: header checksum mismatch (file corrupt): 0x%08x != 0x%08x", got, want)
	}
	sr.hdr.Kind = binary.LittleEndian.Uint16(hdr[8:10])
	sr.hdr.PayloadVersion = binary.LittleEndian.Uint32(hdr[10:14])
	sr.fileCRC = crc32.Update(0, castagnoli, hdr[:])
	return sr, nil
}

// Header returns the decoded snapshot header.
func (sr *Reader) Header() Header { return sr.hdr }

// next loads and verifies the next section, or the trailer.
func (sr *Reader) next() error {
	var head [8]byte
	if _, err := io.ReadFull(sr.r, head[:]); err != nil {
		return fmt.Errorf("snapshot: truncated after section %d (missing trailer): %w", sr.nsec, err)
	}
	n := binary.LittleEndian.Uint32(head[0:4])
	crc := binary.LittleEndian.Uint32(head[4:8])
	if n == 0 {
		// Trailer: crc is the whole-file checksum up to the trailer.
		if sr.fileCRC != crc {
			return fmt.Errorf("snapshot: file checksum mismatch (file corrupt): 0x%08x != 0x%08x", sr.fileCRC, crc)
		}
		sr.done = true
		return io.EOF
	}
	if n > MaxSectionSize {
		return fmt.Errorf("snapshot: section %d claims %d bytes (max %d): length corrupt", sr.nsec+1, n, MaxSectionSize)
	}
	sr.fileCRC = crc32.Update(sr.fileCRC, castagnoli, head[:])
	if cap(sr.section) < int(n) {
		sr.section = make([]byte, n)
	}
	sr.section = sr.section[:n]
	if _, err := io.ReadFull(sr.r, sr.section); err != nil {
		return fmt.Errorf("snapshot: section %d truncated at %d bytes: %w", sr.nsec+1, n, err)
	}
	if got := crc32.Checksum(sr.section, castagnoli); got != crc {
		return fmt.Errorf("snapshot: section %d checksum mismatch (file corrupt): 0x%08x != 0x%08x", sr.nsec+1, got, crc)
	}
	sr.fileCRC = crc32.Update(sr.fileCRC, castagnoli, sr.section)
	sr.nsec++
	sr.pos = 0
	return nil
}

func (sr *Reader) Read(p []byte) (int, error) {
	if sr.err != nil {
		return 0, sr.err
	}
	if sr.done {
		return 0, io.EOF
	}
	for sr.pos == len(sr.section) {
		if err := sr.next(); err != nil {
			if err != io.EOF {
				sr.err = err
			}
			return 0, err
		}
	}
	n := copy(p, sr.section[sr.pos:])
	sr.pos += n
	return n, nil
}

// Verify reads the remainder of the snapshot, checking every section and
// the trailer without retaining the payload. Combined with NewReader it
// is a full integrity scan of a snapshot file.
func (sr *Reader) Verify() error {
	_, err := io.Copy(io.Discard, sr)
	return err
}
