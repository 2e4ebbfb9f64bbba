package fsx

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Mapping is a read-only view of a whole file, obtained through MapFile.
// Data is either a true memory mapping (the OS filesystem on platforms
// that support it) or a heap copy of the file (every other FS, e.g. the
// fault injector). Close releases the mapping; Data must not be used
// afterwards — for a true mapping the memory is gone, not merely stale.
type Mapping struct {
	Data   []byte
	mapped bool // true when Data is a live mmap, not a heap copy
	close  func() error
}

// Close releases the mapping. Safe to call more than once.
func (m *Mapping) Close() error {
	if m.close == nil {
		return nil
	}
	c := m.close
	m.close = nil
	m.Data = nil
	return c()
}

// mmapFS is implemented by filesystems that can memory-map a file.
// The OS filesystem implements it on unix builds.
type mmapFS interface {
	mmap(name string) (data []byte, close func() error, err error)
}

// MapFile opens name through fs as a read-only whole-file view. When fs
// can memory-map (the real filesystem on unix), the returned Mapping
// aliases the page cache: open cost is O(1) in the file size and pages
// fault in on demand. Any other FS — including FaultFS, which is how
// corruption tests drive mapped readers — falls back to reading the
// file into memory, which is semantically identical but eager.
func MapFile(fs FS, name string) (*Mapping, error) {
	if mf, ok := fs.(mmapFS); ok {
		data, closeFn, err := mf.mmap(name)
		if err != nil {
			return nil, fmt.Errorf("fsx: mmap %s: %w", name, err)
		}
		return &Mapping{Data: data, mapped: true, close: closeFn}, nil
	}
	data, err := ReadFile(fs, name)
	if err != nil {
		return nil, err
	}
	return &Mapping{Data: data, close: func() error { return nil }}, nil
}

var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Int32s reinterprets b — typically a slab of a Mapping — as
// little-endian int32s: zero-copy on a little-endian host when b is
// 4-aligned, a decoded copy otherwise. A trailing partial value is
// ignored; an empty result is non-nil.
func Int32s(b []byte) []int32 {
	return alias(b, func(p []byte) int32 { return int32(binary.LittleEndian.Uint32(p)) })
}

// Uint16s is Int32s for uint16s, zero-copy when b is 2-aligned.
func Uint16s(b []byte) []uint16 {
	return alias(b, func(p []byte) uint16 { return binary.LittleEndian.Uint16(p) })
}

// Uint32s is Int32s for uint32s.
func Uint32s(b []byte) []uint32 {
	return alias(b, func(p []byte) uint32 { return binary.LittleEndian.Uint32(p) })
}

// Uint64s is Int32s for uint64s, zero-copy when b is 8-aligned.
func Uint64s(b []byte) []uint64 {
	return alias(b, func(p []byte) uint64 { return binary.LittleEndian.Uint64(p) })
}

func alias[T uint16 | int32 | uint32 | uint64](b []byte, decode func([]byte) T) []T {
	size := int(unsafe.Sizeof(T(0)))
	n := len(b) / size
	if n == 0 {
		return []T{}
	}
	if nativeLittleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = decode(b[i*size:])
	}
	return out
}
