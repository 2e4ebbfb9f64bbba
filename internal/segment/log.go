package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"csrank/internal/fsx"
)

// recordHeaderSize is the fixed prefix of every record: uint32 payload
// length plus uint32 CRC32-C of the payload.
const recordHeaderSize = 8

// maxRecordBytes caps a record's payload so a corrupted length field
// cannot demand an absurd allocation during replay.
const maxRecordBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errPayloadTooLarge marks appendRaw rejections of payloads above the
// maxRecordBytes cap replay enforces. Nothing reaches the file: writing
// such a record would produce a length field replay rejects as corrupt,
// making every later acknowledged record unreachable.
var errPayloadTooLarge = errors.New("segment: payload exceeds the record size cap")

// rawLog is the segment's write-ahead log: an append-only file of opaque
// byte records, framed as uint32 payload length, uint32 CRC32-C,
// payload. Each record is written with a single Write call and fsynced
// before appendRaw returns, so an acknowledged record survives any
// later crash.
type rawLog struct {
	path string
	f    fsx.File
}

// openRawLog opens (creating if absent) the log at path for appending.
func openRawLog(fs fsx.FS, path string) (*rawLog, error) {
	f, err := fs.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("segment: open log %s: %w", path, err)
	}
	return &rawLog{path: path, f: f}, nil
}

// createRawLog creates an empty log at path, truncating any stale file
// already there.
func createRawLog(fs fsx.FS, path string) (*rawLog, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("segment: create log %s: %w", path, err)
	}
	return &rawLog{path: path, f: f}, nil
}

// appendRaw frames payload into one record and makes it durable. A
// payload above the cap is refused with errPayloadTooLarge before any
// byte is written, leaving the log appendable. On any other error the
// tail of the file may hold a torn record; the caller must stop
// appending (a record after a torn one is unreachable to replay) and
// reopen through recovery.
func (l *rawLog) appendRaw(payload []byte) error {
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("%w: %d bytes, cap %d", errPayloadTooLarge, len(payload), maxRecordBytes)
	}
	rec := make([]byte, recordHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	copy(rec[recordHeaderSize:], payload)
	if _, err := l.f.Write(rec); err != nil {
		return fmt.Errorf("segment: append %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("segment: fsync %s: %w", l.path, err)
	}
	return nil
}

// close releases the log's file handle.
func (l *rawLog) close() error { return l.f.Close() }

// replayResult reports what a replayRaw pass found. tornTail is true
// when the file ends in an incomplete or checksum-invalid final record —
// the signature of a crash mid-append. The torn bytes start at
// tailOffset; truncating the file there makes the log clean again.
type replayResult struct {
	tornTail   bool
	tailOffset int64
}

// replayRaw reads the log at path and calls fn with every complete
// record's payload in order. A torn final record — incomplete header,
// incomplete payload, a checksum mismatch on the record touching
// end-of-file, or a run of zeros from a zero-extended tail page — is
// the expected residue of a crash mid-append: it is skipped and
// reported, not an error. Any damage *before* the final record cannot
// be explained by a torn append and is returned as a hard corruption
// error, because silently resuming past it would drop acknowledged
// records. The payload slice aliases an internal buffer only for the
// duration of the call; fn must copy what it keeps.
func replayRaw(fs fsx.FS, path string, fn func(payload []byte) error) (replayResult, error) {
	data, err := fsx.ReadFile(fs, path)
	if err != nil {
		return replayResult{}, err
	}

	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < recordHeaderSize {
			return replayResult{tornTail: true, tailOffset: int64(off)}, nil
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length == 0 && allZero(data[off:]) {
			// Filesystems may zero-extend the tail page on a crash; a run
			// of zeros to end-of-file is a torn tail, not corruption.
			return replayResult{tornTail: true, tailOffset: int64(off)}, nil
		}
		if length == 0 || length > maxRecordBytes {
			return replayResult{}, fmt.Errorf("segment: %s: corrupt record header at offset %d (length %d)", path, off, length)
		}
		if rest < recordHeaderSize+length {
			return replayResult{tornTail: true, tailOffset: int64(off)}, nil
		}
		payload := data[off+recordHeaderSize : off+recordHeaderSize+length]
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			if rest == recordHeaderSize+length {
				// Final record: a torn write of the payload's last bytes
				// is indistinguishable from corruption, and the record was
				// never acknowledged — skip it.
				return replayResult{tornTail: true, tailOffset: int64(off)}, nil
			}
			return replayResult{}, fmt.Errorf("segment: %s: checksum mismatch at offset %d with %d bytes following — log is corrupt", path, off, rest-recordHeaderSize-length)
		}
		if err := fn(payload); err != nil {
			return replayResult{}, fmt.Errorf("segment: %s: record at offset %d: %w", path, off, err)
		}
		off += recordHeaderSize + length
	}
	return replayResult{}, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
