package segment

import (
	"errors"
	"fmt"

	"csrank/internal/fsx"
	"csrank/internal/index"
)

// Segment is the mutable tail of a live collection: an append-only
// in-memory document buffer whose every Add is WAL-logged and fsynced
// before it is acknowledged, so an acked document survives any crash.
// A Segment is not internally synchronized — the Ingester serializes
// all mutation under its own lock.
type Segment struct {
	fs   fsx.FS
	path string
	log  *rawLog
	docs []index.Document
	// poisoned latches the first append failure: the log tail may hold a
	// torn record, and a record written after a torn one is unreachable
	// to replay, so further appends must be refused until the segment is
	// reopened through recovery.
	poisoned error
}

// CreateSegment starts an empty segment logging to path, truncating any
// stale log already there.
func CreateSegment(fs fsx.FS, path string) (*Segment, error) {
	log, err := createRawLog(fs, path)
	if err != nil {
		return nil, err
	}
	return &Segment{fs: fs, path: path, log: log}, nil
}

// OpenSegment recovers the segment logged at path: every complete
// record is replayed into the document buffer, a torn final record —
// the residue of a crash mid-append, never acknowledged — is truncated
// away, and the log is reopened for appending. A missing file opens as
// an empty segment.
func OpenSegment(fs fsx.FS, path string) (*Segment, error) {
	var docs []index.Document
	res, err := replayRaw(fs, path, func(payload []byte) error {
		d, derr := decodeDoc(payload)
		if derr != nil {
			return derr
		}
		docs = append(docs, d)
		return nil
	})
	if err != nil {
		if _, statErr := fs.Stat(path); statErr != nil {
			// No log yet: first open of a fresh directory.
			return CreateSegment(fs, path)
		}
		return nil, err
	}
	if res.tornTail {
		if err := fs.Truncate(path, res.tailOffset); err != nil {
			return nil, fmt.Errorf("segment: truncate torn tail of %s: %w", path, err)
		}
	}
	log, err := openRawLog(fs, path)
	if err != nil {
		return nil, err
	}
	return &Segment{fs: fs, path: path, log: log, docs: docs}, nil
}

// Add logs the document — fsynced before return — and appends it to the
// buffer, returning its position in the segment. An error means the
// document was NOT acknowledged (it may or may not survive a crash) and
// poisons the segment against further appends — except a document too
// large for one record, which is refused before any byte is written.
func (s *Segment) Add(d index.Document) (int, error) {
	if s.poisoned != nil {
		return 0, fmt.Errorf("segment: log poisoned by earlier append failure: %w", s.poisoned)
	}
	if err := s.log.appendRaw(encodeDoc(d)); err != nil {
		if !errors.Is(err, errPayloadTooLarge) {
			s.poisoned = err
		}
		return 0, err
	}
	s.docs = append(s.docs, d)
	return len(s.docs) - 1, nil
}

// Docs returns the buffered documents. The slice is shared; callers
// must treat it as read-only and re-slice rather than mutate.
func (s *Segment) Docs() []index.Document { return s.docs }

// Len returns the buffered document count.
func (s *Segment) Len() int { return len(s.docs) }

// Path returns the segment's log path.
func (s *Segment) Path() string { return s.path }

// Close releases the log handle.
func (s *Segment) Close() error { return s.log.close() }
