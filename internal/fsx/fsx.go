// Package fsx abstracts the handful of filesystem operations the
// durability layer performs — create, append, rename, fsync — behind an
// interface small enough to wrap with a fault injector. Production code
// passes OS; crash-consistency tests pass a FaultFS armed to fail at an
// exact write site, which is how every kill point in the snapshot and
// segment-log protocols gets exercised without an actual kill -9.
package fsx

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the durability layer uses.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's data (and metadata) to stable storage.
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface of the durability layer. All paths are
// interpreted as by the os package.
type FS interface {
	// Create truncates-or-creates name for writing.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenAppend opens name for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname (POSIX rename).
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// Stat returns file metadata.
	Stat(name string) (os.FileInfo, error)
	// ReadDir lists a directory's entries sorted by name.
	ReadDir(name string) ([]os.DirEntry, error)
	// SyncDir fsyncs the directory itself so a completed rename or
	// create survives a power cut.
	SyncDir(name string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
func (osFS) Rename(oldname, newname string) error       { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error     { return os.Truncate(name, size) }
func (osFS) Stat(name string) (os.FileInfo, error)      { return os.Stat(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads the whole of name through fs.
func ReadFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("fsx: read %s: %w", name, err)
	}
	return data, nil
}

// WriteFileAtomic writes a file so that path only ever holds either its
// previous content or the complete new content: the payload goes to a
// temporary file in the same directory, is fsynced, and is renamed over
// path; the directory is then fsynced so the rename itself is durable.
// On any error the temporary file is removed and path is untouched.
func WriteFileAtomic(fs FS, path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("fsx: create %s: %w", tmp, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			fs.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return fmt.Errorf("fsx: write %s: %w", tmp, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("fsx: fsync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("fsx: close %s: %w", tmp, err)
	}
	if err = fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("fsx: rename %s -> %s: %w", tmp, path, err)
	}
	if err = fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("fsx: sync dir of %s: %w", path, err)
	}
	return nil
}
