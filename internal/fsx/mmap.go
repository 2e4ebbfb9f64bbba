package fsx

import "fmt"

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
