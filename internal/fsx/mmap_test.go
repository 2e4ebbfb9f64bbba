package fsx

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

func TestMapFileOS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	want := bytes.Repeat([]byte("mapped-bytes/"), 1000)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Data, want) {
		t.Fatalf("mapped content differs: %d bytes vs %d", len(m.Data), len(want))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMapFileEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := MapFile(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != 0 {
		t.Fatalf("empty file mapped to %d bytes", len(m.Data))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMapFileFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	want := []byte("fallback content")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS)
	m, err := MapFile(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	if m.mapped {
		t.Fatal("FaultFS should not produce a true mapping")
	}
	if !bytes.Equal(m.Data, want) {
		t.Fatalf("fallback content differs")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMapFileMissing(t *testing.T) {
	if _, err := MapFile(OS, filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestAliasUnalignedCopies: a slab that is not aligned for its element
// type decodes into a copy with the same values as an aligned one, which
// aliases its bytes.
func TestAliasUnalignedCopies(t *testing.T) {
	buf := make([]byte, 8*4+1)
	for i := range buf {
		buf[i] = byte(i*37 + 1)
	}
	for _, off := range []int{0, 1} {
		b := buf[off : off+8*4]
		aligned := uintptr(unsafe.Pointer(&b[0]))%8 == 0
		u64, u32, i32, u16 := Uint64s(b), Uint32s(b), Int32s(b), Uint16s(b)
		if len(u64) != 4 || len(u32) != 8 || len(i32) != 8 || len(u16) != 16 {
			t.Fatalf("offset %d: lengths %d %d %d %d", off, len(u64), len(u32), len(i32), len(u16))
		}
		for i := range u64 {
			if want := binary.LittleEndian.Uint64(b[i*8:]); u64[i] != want {
				t.Fatalf("offset %d: uint64 %d = %d, want %d", off, i, u64[i], want)
			}
		}
		for i := range u16 {
			if want := binary.LittleEndian.Uint16(b[i*2:]); u16[i] != want {
				t.Fatalf("offset %d: uint16 %d = %d, want %d", off, i, u16[i], want)
			}
		}
		for i := range u32 {
			if want := binary.LittleEndian.Uint32(b[i*4:]); u32[i] != want || i32[i] != int32(want) {
				t.Fatalf("offset %d: 32-bit value %d = %d/%d, want %d", off, i, u32[i], i32[i], want)
			}
		}
		if shared := &u64[0] == (*uint64)(unsafe.Pointer(&b[0])); shared != (aligned && nativeLittleEndian) {
			t.Fatalf("offset %d: aliases the bytes %v, aligned %v", off, shared, aligned)
		}
	}
	if got := Uint64s(buf[:7]); got == nil || len(got) != 0 {
		t.Fatalf("a slab shorter than one value gives %v", got)
	}
}
