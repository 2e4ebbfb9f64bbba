package fsx

import (
	"errors"
	"os"
	"sync"
)

// ErrInjected is the error a FaultFS returns at its armed fault point.
var ErrInjected = errors.New("fsx: injected fault")

// ErrCrashed is the error every mutating operation returns after the
// fault point fired: the process is considered dead from that moment, so
// nothing it attempts afterwards may reach the disk.
var ErrCrashed = errors.New("fsx: filesystem crashed at injected fault")

// FaultFS wraps an FS and fails its Nth mutating operation (create,
// write, sync, close-after-write, rename, remove, truncate). Once the
// fault fires the FaultFS behaves like a crashed process: all further
// mutating operations fail with ErrCrashed, leaving the backing store
// exactly as a kill -9 at that instant would. Reads are never faulted, so
// a recovery pass can run against the same FaultFS after Reset.
//
// A clean run with an unarmed FaultFS counts the mutating operations via
// Ops(); sweeping Arm(1)..Arm(Ops()) then visits every kill point of the
// protocol under test.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	ops     int
	point   int // fire when ops reaches this value; 0 = disarmed
	short   bool
	crashed bool
}

// NewFaultFS wraps inner with an unarmed fault injector.
func NewFaultFS(inner FS) *FaultFS { return &FaultFS{inner: inner} }

// Arm schedules the fault at the point-th mutating operation (1-based).
// When short is true and that operation is a write, half the buffer is
// written before the error — a torn write rather than a clean failure.
func (f *FaultFS) Arm(point int, short bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.point = point
	f.short = short
	f.crashed = false
	f.ops = 0
}

// Reset disarms the injector and clears the crashed state, simulating a
// process restart over the same on-disk state.
func (f *FaultFS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.point = 0
	f.crashed = false
	f.ops = 0
}

// Ops returns the number of mutating operations observed since the last
// Arm or Reset.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the armed fault has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step accounts one mutating operation. It returns (fire, short, err):
// err is non-nil when the process is already crashed, fire is true when
// this exact operation must fail.
func (f *FaultFS) step() (fire, short bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, false, ErrCrashed
	}
	f.ops++
	if f.point > 0 && f.ops == f.point {
		f.crashed = true
		return true, f.short, nil
	}
	return false, false, nil
}

func (f *FaultFS) Create(name string) (File, error) {
	fire, _, err := f.step()
	if err != nil {
		return nil, err
	}
	if fire {
		return nil, ErrInjected
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	fire, _, err := f.step()
	if err != nil {
		return nil, err
	}
	if fire {
		return nil, ErrInjected
	}
	file, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) Open(name string) (File, error) { return f.inner.Open(name) }

func (f *FaultFS) Rename(oldname, newname string) error {
	fire, _, err := f.step()
	if err != nil {
		return err
	}
	if fire {
		return ErrInjected
	}
	return f.inner.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	fire, _, err := f.step()
	if err != nil {
		return err
	}
	if fire {
		return ErrInjected
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	fire, _, err := f.step()
	if err != nil {
		return err
	}
	if fire {
		return ErrInjected
	}
	return f.inner.Truncate(name, size)
}

func (f *FaultFS) SyncDir(name string) error {
	fire, _, err := f.step()
	if err != nil {
		return err
	}
	if fire {
		return ErrInjected
	}
	return f.inner.SyncDir(name)
}

func (f *FaultFS) Stat(name string) (os.FileInfo, error)      { return f.inner.Stat(name) }
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }

// faultFile intercepts the mutating methods of an open file.
type faultFile struct {
	File
	fs *FaultFS
}

func (w *faultFile) Write(p []byte) (int, error) {
	fire, short, err := w.fs.step()
	if err != nil {
		return 0, err
	}
	if fire {
		if short && len(p) > 1 {
			n, _ := w.File.Write(p[:len(p)/2])
			return n, ErrInjected
		}
		return 0, ErrInjected
	}
	return w.File.Write(p)
}

func (w *faultFile) Sync() error {
	fire, _, err := w.fs.step()
	if err != nil {
		return err
	}
	if fire {
		return ErrInjected
	}
	return w.File.Sync()
}

func (w *faultFile) Close() error {
	fire, _, err := w.fs.step()
	if err != nil {
		// The underlying descriptor must still be released or the test
		// process leaks file handles; the protocol-visible result stays
		// the crash error.
		w.File.Close()
		return err
	}
	if fire {
		w.File.Close()
		return ErrInjected
	}
	return w.File.Close()
}
