package index_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/fsx"
	"csrank/internal/index"
)

// corpusIndexFile builds an index over n documents of
// corpus.DefaultConfig's seed (no benchmark topics, segment size 128)
// and saves it under dir, returning its path and the index. The
// background vocabulary scales with n from the default's at 6 000
// documents — one shard of csbench's corpus — so the dictionary grows
// with the collection.
func corpusIndexFile(b *testing.B, dir string, n int) (string, *index.Index) {
	b.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs, cfg.NumTopics = n, 0
	cfg.BackgroundVocab = cfg.BackgroundVocab * n / 6000
	c, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := c.BuildIndex(128)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("index-%d.gob", n))
	if err := ix.SaveMapped(path); err != nil {
		b.Fatal(err)
	}
	return path, ix
}

// BenchmarkIndexOpenCorpus is BenchmarkIndexOpen over the synthetic
// corpus at a shard's size (6 000 documents) and at four times it, with
// a vocabulary to match, so the dictionary dominates what open reads.
// heapMB is the live heap one opened index pins; terms counts its
// dictionary entries over every field. allocs/op should not grow with
// the term count.
func BenchmarkIndexOpenCorpus(b *testing.B) {
	dir := b.TempDir()
	for _, n := range []int{6000, 24000} {
		path, ix := corpusIndexFile(b, dir, n)
		terms := 0
		for _, f := range ix.Schema().Fields {
			terms += ix.UniqueTerms(f.Name)
		}
		ix = nil
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x, err := index.LoadFileFS(fsx.OS, path)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				x.Close()
				b.StartTimer()
			}
			b.StopTimer()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			x, err := index.LoadFileFS(fsx.OS, path)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			heap := float64(0)
			if after.HeapAlloc > before.HeapAlloc {
				heap = float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
			}
			b.ReportMetric(heap, "heapMB")
			b.ReportMetric(float64(terms), "terms")
			x.Close()
		})
	}
}

// BenchmarkPostingsLookup measures one Postings lookup on a mapped
// index over the 6 000-document corpus: a hit on a term whose list an
// earlier lookup built (the query path's steady state), and a miss.
func BenchmarkPostingsLookup(b *testing.B) {
	path, ix := corpusIndexFile(b, b.TempDir(), 6000)
	field := ix.Schema().ContentField
	terms := ix.Terms(field)
	mx, err := index.OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mx.Close()
	hit := terms[len(terms)/2]
	if mx.Postings(field, hit) == nil {
		b.Fatalf("no list for %q", hit)
	}
	for _, bc := range []struct{ name, term string }{{"hit", hit}, {"miss", hit + "zz"}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mx.Postings(field, bc.term)
			}
		})
	}
}
