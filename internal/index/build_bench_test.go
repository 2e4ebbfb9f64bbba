package index_test

import (
	"fmt"
	"io"
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/index"
)

var benchBuilt *index.Index

// BenchmarkBuildFrom builds a live-ingest refresh batch (200
// documents), a batch under the parallel threshold (1 000, always on the
// calling goroutine) and one csbench-sized shard (6 000 documents of the
// synthetic corpus). docs=6000/save also writes the shard's v5 file
// image, to io.Discard: what csbuild and csbench's data-dir build do per
// shard. Run with -cpu 1,2 to see the range split.
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
	for _, bc := range []struct {
		n    int
		save bool
	}{{200, false}, {1000, false}, {6000, false}, {6000, true}} {
		name := fmt.Sprintf("docs=%d", bc.n)
		if bc.save {
			name += "/save"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix, err := index.BuildFrom(corpus.Schema(), 0, docs[:bc.n])
				if err != nil {
					b.Fatal(err)
				}
				if bc.save {
					if err := ix.WritePaged(io.Discard, 0); err != nil {
						b.Fatal(err)
					}
				}
				benchBuilt = ix
			}
			b.ReportMetric(float64(bc.n*b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}
