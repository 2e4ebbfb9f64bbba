package index

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// BenchmarkIndexOpen measures the cold-open cost of a paged v4 index
// file: it maps the file and only parses its table of contents. The
// reported heap metric is the live bytes the opened index pins (the
// mapped reader leaves postings on disk until touched).
func BenchmarkIndexOpen(b *testing.B) {
	ix := synthIndex(b, rand.New(rand.NewSource(42)), 20000)
	path := filepath.Join(b.TempDir(), "index.v4")
	if err := ix.SaveMapped(path); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := LoadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		x.Close()
		b.StartTimer()
	}
	b.StopTimer()
	// One representative open held live across a GC: the heap the
	// process pays to keep the index resident, net of the fixture.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x, err := LoadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/(1<<20), "heapMB")
	} else {
		b.ReportMetric(0, "heapMB")
	}
	x.Close()
}
