package segment

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"csrank/internal/fsx"
	"csrank/internal/index"
)

// randomPayloads returns n opaque, non-empty record payloads.
func randomPayloads(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 1+rng.Intn(200))
		rng.Read(out[i])
	}
	return out
}

// writeLog appends every payload to a fresh log at path and returns the
// file's bytes.
func writeLog(t testing.TB, path string, payloads [][]byte) []byte {
	t.Helper()
	l, err := createRawLog(fsx.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.appendRaw(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// replayAll replays the log at path and returns copies of its payloads.
func replayAll(path string) ([][]byte, replayResult, error) {
	var got [][]byte
	res, err := replayRaw(fsx.OS, path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	return got, res, err
}

// TestReplayTruncationAnywhere cuts the log at every byte: replay must
// deliver exactly the complete records before the cut and flag the rest
// as a torn tail — never a hard error, never a panic, never a phantom
// record.
func TestReplayTruncationAnywhere(t *testing.T) {
	dir := t.TempDir()
	payloads := randomPayloads(rand.New(rand.NewSource(13)), 5)
	data := writeLog(t, filepath.Join(dir, "full.wal"), payloads)
	var bounds []int // cumulative record end offsets
	off := 0
	for _, p := range payloads {
		off += recordHeaderSize + len(p)
		bounds = append(bounds, off)
	}
	if len(data) != off {
		t.Fatalf("log is %d bytes, expected %d", len(data), off)
	}

	cutPath := filepath.Join(dir, "cut.wal")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantComplete := 0
		for _, b := range bounds {
			if cut >= b {
				wantComplete++
			}
		}
		got, res, err := replayAll(cutPath)
		if err != nil {
			t.Fatalf("cut %d: hard error: %v", cut, err)
		}
		if len(got) != wantComplete {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), wantComplete)
		}
		if wantComplete > 0 && !reflect.DeepEqual(got, payloads[:wantComplete]) {
			t.Fatalf("cut %d: replayed payloads differ from the appended ones", cut)
		}
		atBoundary := cut == 0 || (wantComplete > 0 && bounds[wantComplete-1] == cut)
		if res.tornTail == atBoundary {
			t.Fatalf("cut %d: tornTail=%v at boundary=%v", cut, res.tornTail, atBoundary)
		}
		if res.tornTail {
			wantOff := 0
			if wantComplete > 0 {
				wantOff = bounds[wantComplete-1]
			}
			if res.tailOffset != int64(wantOff) {
				t.Fatalf("cut %d: tail at %d, want %d", cut, res.tailOffset, wantOff)
			}
		}
	}
}

// TestReplayMidFileCorruption flips one byte in an early record of a
// multi-record log: that cannot be a torn append, so replay must refuse
// with a hard error rather than silently dropping acknowledged records.
func TestReplayMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	data := writeLog(t, path, randomPayloads(rand.New(rand.NewSource(17)), 4))
	data[recordHeaderSize] ^= 0x10 // a payload byte of the first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayAll(path); err == nil {
		t.Fatal("mid-file corruption replayed cleanly")
	}
}

// TestReplayZeroExtendedTail covers the crash mode where the filesystem
// zero-extends the tail page: a run of zeros to end-of-file is a torn
// tail to skip, while zeros followed by other garbage stay a hard error.
func TestReplayZeroExtendedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	payloads := randomPayloads(rand.New(rand.NewSource(19)), 3)
	data := writeLog(t, path, payloads)

	zeroTail := append(append([]byte(nil), data...), make([]byte, 512)...)
	if err := os.WriteFile(path, zeroTail, 0o644); err != nil {
		t.Fatal(err)
	}
	got, res, err := replayAll(path)
	if err != nil {
		t.Fatalf("zero-extended tail: %v", err)
	}
	if !res.tornTail || !reflect.DeepEqual(got, payloads) || res.tailOffset != int64(len(data)) {
		t.Fatalf("unexpected result: %+v", res)
	}

	zeroTail[len(zeroTail)-1] = 0xFF // zeros then garbage: not a zero-extension
	if err := os.WriteFile(path, zeroTail, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayAll(path); err == nil {
		t.Fatal("garbage after zero run replayed cleanly")
	}
}

// TestAppendRejectsOversizedRecord feeds appendRaw a payload above the
// record cap replay enforces: it must be rejected before any byte
// reaches the file — a written record with an oversized length field
// would make replay fail the whole log — and the log must remain
// appendable.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	good := randomPayloads(rand.New(rand.NewSource(137)), 2)
	l, err := createRawLog(fsx.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	if err := l.appendRaw(good[0]); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.appendRaw(make([]byte, maxRecordBytes+1)); !errors.Is(err, errPayloadTooLarge) {
		t.Fatalf("oversized append: %v, want errPayloadTooLarge", err)
	}
	if after, err := os.Stat(path); err != nil || after.Size() != before.Size() {
		t.Fatalf("rejected append changed the log: %d → %d bytes (%v)", before.Size(), after.Size(), err)
	}
	if err := l.appendRaw(good[1]); err != nil {
		t.Fatalf("log unusable after rejected append: %v", err)
	}
	got, res, err := replayAll(path)
	if err != nil || res.tornTail || !reflect.DeepEqual(got, good) {
		t.Fatalf("replay after rejection: res=%+v err=%v", res, err)
	}
}

// TestOversizedDocumentDoesNotPoisonSegment: a document too large for one
// log record wrote nothing, so the segment must refuse it and keep
// accepting documents — unlike a failed write, nothing on disk is
// suspect — and recovery must replay exactly the accepted ones.
func TestOversizedDocumentDoesNotPoisonSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	s, err := CreateSegment(fsx.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	accepted := []index.Document{
		{Fields: map[string]string{"content": "before"}},
		{Fields: map[string]string{"content": "after"}},
	}
	if _, err := s.Add(accepted[0]); err != nil {
		t.Fatal(err)
	}
	huge := index.Document{Fields: map[string]string{"content": strings.Repeat("x", maxRecordBytes+1)}}
	if _, err := s.Add(huge); !errors.Is(err, errPayloadTooLarge) {
		t.Fatalf("oversized Add: %v, want errPayloadTooLarge", err)
	}
	if pos, err := s.Add(accepted[1]); err != nil || pos != 1 {
		t.Fatalf("Add after the rejected document: position %d, %v", pos, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSegment(fsx.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !reflect.DeepEqual(r.Docs(), accepted) {
		t.Fatalf("recovered %d documents, want the %d accepted", r.Len(), len(accepted))
	}
}

// FuzzOpenSegment writes arbitrary bytes as a segment log: OpenSegment
// must return an error or documents, never panic, and every document it
// returns must re-encode to a record that replays to the same document.
// Recovery is idempotent: reopening the repaired log yields the same
// documents.
func FuzzOpenSegment(f *testing.F) {
	dir := f.TempDir()
	var payloads [][]byte
	for _, d := range []index.Document{
		{Fields: map[string]string{"title": "t", "content": "alpha beta", "mesh": "m01"}},
		{Fields: map[string]string{"content": "gamma"}},
	} {
		payloads = append(payloads, encodeDoc(d))
	}
	valid := writeLog(f, filepath.Join(dir, "seed.wal"), payloads)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte(nil), valid...), make([]byte, 64)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSegment(fsx.OS, path)
		if err != nil {
			return
		}
		docs := s.Docs()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenSegment(fsx.OS, path)
		if err != nil {
			t.Fatalf("reopening a recovered log: %v", err)
		}
		again.Close()
		if !reflect.DeepEqual(again.Docs(), docs) {
			t.Fatalf("reopen replayed %d documents, first open %d", again.Len(), len(docs))
		}

		var enc [][]byte
		for _, d := range docs {
			enc = append(enc, encodeDoc(d))
		}
		rewritten := filepath.Join(dir, "rewritten.wal")
		writeLog(t, rewritten, enc)
		r, err := OpenSegment(fsx.OS, rewritten)
		if err != nil {
			t.Fatalf("re-encoded log: %v", err)
		}
		r.Close()
		if !reflect.DeepEqual(r.Docs(), docs) {
			t.Fatalf("re-encoded documents replay differently")
		}
	})
}
