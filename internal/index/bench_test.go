package index

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"csrank/internal/fsx"
)

// BenchmarkIndexOpen measures the cold-open cost of a paged v4 index
// file: it maps the file and only parses its table of contents. heapMB
// is the live bytes the opened index pins (the mapped reader builds no
// posting list at open); heapMB-10pct is the same after Postings
// lookups of every tenth term of each field, so the cost of the lists
// those lookups build shows beside it.
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
	type lookup struct{ field, term string }
	var sample []lookup
	for _, f := range ix.Schema().Fields {
		for i, term := range ix.Terms(f.Name) {
			if i%10 == 0 {
				sample = append(sample, lookup{f.Name, term})
			}
		}
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := LoadFileFS(fsx.OS, path)
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
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	heapMB := func() float64 {
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc <= before.HeapAlloc {
			return 0
		}
		return float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
	}
	x, err := LoadFileFS(fsx.OS, path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(heapMB(), "heapMB")
	for _, s := range sample {
		x.Postings(s.field, s.term)
	}
	b.ReportMetric(heapMB(), "heapMB-10pct")
	x.Close()
}
