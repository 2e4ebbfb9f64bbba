package views_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/selection"
	"csrank/internal/shard"
	"csrank/internal/views"
)

// benchShardCatalog writes the catalog csbench serves from its first
// shard — the pinned corpus (seed 1, 25 400 documents, the first 24 000
// split four ways, so 6 000 documents a shard), T_C = 1 % of the shard,
// T_V = 4096 — and returns its path.
func benchShardCatalog(b *testing.B) string {
	b.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 25400
	c, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	parts, _, err := shard.Split(c.IndexDocuments()[:24000], 4)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := index.BuildFrom(corpus.Schema(), 0, parts[0])
	if err != nil {
		b.Fatal(err)
	}
	m, err := selection.Select(ix, selection.Config{TC: int64(len(parts[0])) / 100, TV: 4096, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "views.gob")
	if err := m.Catalog.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkCatalogOpen opens one csbench shard's catalog file and
// reports, beside the open's own cost, the live heap one opened catalog
// pins (heapMB, net of the fixture, measured across a GC).
func BenchmarkCatalogOpen(b *testing.B) {
	path := benchShardCatalog(b)
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := views.LoadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
	b.StopTimer()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := views.LoadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := 0.0
	if after.HeapAlloc > before.HeapAlloc {
		heap = float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
	}
	b.ReportMetric(heap, "heapMB")
	runtime.KeepAlive(c)
	c.Close()
}

// BenchmarkCatalogAnswer answers single-keyword contexts with two
// requested words from an opened csbench shard catalog: the view read
// where the catalog file puts it.
func BenchmarkCatalogAnswer(b *testing.B) {
	c, err := views.LoadFile(benchShardCatalog(b))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	type call struct {
		v        *views.View
		p, words []string
	}
	var calls []call
	probe := c.Match(nil)
	if probe == nil || len(probe.TrackedWords()) == 0 {
		b.Skip("catalog has no view with tracked words")
	}
	words := probe.TrackedWords()
	for i, m := range probe.K() {
		p := []string{m}
		if v := c.Match(p); v != nil {
			calls = append(calls, call{v, p, []string{words[i%len(words)], words[(i*7+3)%len(words)]}})
		}
	}
	if len(calls) == 0 {
		b.Skip("no single-keyword context matches a view")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := calls[i%len(calls)]
		if catalogAnswerSink, err = x.v.Answer(x.p, x.words, nil); err != nil {
			b.Fatal(err)
		}
	}
}

var catalogAnswerSink views.ContextStats
