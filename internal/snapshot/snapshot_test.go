package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// frame wraps payload into a snapshot with small sections so tests cross
// many section boundaries. Nothing writes this container any more; the
// test encoder produces what older builds wrote.
func frame(t *testing.T, payload []byte, sectionSize int) []byte {
	t.Helper()
	return encodeFramed(KindIndex, 7, payload, sectionSize)
}

// encodeFramed lays out header, sections of at most sectionSize bytes and
// trailer exactly as the framed writer of older builds did.
func encodeFramed(kind uint16, version uint32, payload []byte, sectionSize int) []byte {
	out := binary.LittleEndian.AppendUint16([]byte(Magic), kind)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	for len(payload) > 0 {
		n := min(sectionSize, len(payload))
		out = binary.LittleEndian.AppendUint32(out, uint32(n))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload[:n], castagnoli))
		out, payload = append(out, payload[:n]...), payload[n:]
	}
	out = binary.LittleEndian.AppendUint32(out, 0)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out[:len(out)-4], castagnoli))
}

func unframe(b []byte) ([]byte, Header, error) {
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, Header{}, err
	}
	out, err := io.ReadAll(r)
	return out, r.Header(), err
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 10000} {
		payload := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(payload)
		got, hdr, err := unframe(frame(t, payload, 64))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: payload mismatch", n)
		}
		if hdr.Kind != KindIndex || hdr.PayloadVersion != 7 {
			t.Fatalf("header = %+v", hdr)
		}
	}
}

func TestNotSnapshot(t *testing.T) {
	_, _, err := unframe([]byte("this is not a framed snapshot at all"))
	if !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("want ErrNotSnapshot, got %v", err)
	}
}

// TestTruncationAtEveryByte cuts the file at every possible length; all
// but the full length must error, and never panic.
func TestTruncationAtEveryByte(t *testing.T) {
	payload := []byte(strings.Repeat("durability is a property of the whole system ", 40))
	full := frame(t, payload, 128)
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := unframe(full[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded cleanly", cut, len(full))
		}
	}
	if _, _, err := unframe(full); err != nil {
		t.Fatalf("full file failed: %v", err)
	}
}

// TestBitFlipAtEveryByte flips one bit in every byte of the file; every
// flip must be detected.
func TestBitFlipAtEveryByte(t *testing.T) {
	payload := []byte(strings.Repeat("x", 512))
	full := frame(t, payload, 100)
	for off := 0; off < len(full); off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 1 << uint(off%8)
		got, _, err := unframe(mut)
		if err == nil && bytes.Equal(got, payload) {
			// A flip in the trailer CRC of the magic? Everything is
			// covered by a checksum; any clean load must be a bug.
			t.Fatalf("bit flip at byte %d went undetected", off)
		}
	}
}

func TestVerify(t *testing.T) {
	full := frame(t, []byte("payload"), 64)
	r, err := NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), full...)
	mut[len(mut)-3] ^= 0x40
	r, err = NewReader(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err == nil {
		t.Fatal("corrupt trailer passed Verify")
	}
}

func TestHugeSectionLengthRejected(t *testing.T) {
	full := frame(t, []byte("abc"), 64)
	// Overwrite the first section's length field (bytes 18..22) with an
	// absurd value.
	mut := append([]byte(nil), full...)
	mut[18], mut[19], mut[20], mut[21] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := unframe(mut); err == nil {
		t.Fatal("absurd section length accepted")
	}
}
