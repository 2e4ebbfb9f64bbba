package index_test

import (
	"fmt"
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/index"
)

var benchBuilt *index.Index

// BenchmarkBuildFrom builds one csbench-sized shard (6 000 documents of
// the synthetic corpus) and one live-ingest refresh batch (1 000, under
// the parallel threshold, so always on the calling goroutine). Run with
// -cpu 1,2 to see the range split.
func BenchmarkBuildFrom(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.Seed = 1
	cfg.NumDocs = 12000 // the generator needs ≥ 12 000 for 30 topics
	cfg.OntologyTerms = 300
	cfg.NumTopics = 30
	c, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	docs := c.IndexDocuments()
	for _, n := range []int{1000, 6000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix, err := index.BuildFrom(corpus.Schema(), 0, docs[:n])
				if err != nil {
					b.Fatal(err)
				}
				benchBuilt = ix
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}
