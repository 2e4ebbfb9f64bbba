package segment

import (
	"testing"
	"time"

	"csrank/internal/core"
	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/shard"
)

// BenchmarkCompact measures compactions as a live server runs them, in
// csbench's live-ingest shape: a four-shard cluster of 24 000 corpus
// documents, 200 acknowledged documents drained per compaction. The adds run with
// the timer stopped, so ns/op, B/op and allocs/op are the compaction's
// own: writing each shard's next generation, opening it and swapping it
// in.
func BenchmarkCompact(b *testing.B) {
	const nShards, nBase, batch = 4, 24000, 200
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = nBase + 10*batch
	cfg.NumTopics = 0
	c, err := corpus.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	docs := c.IndexDocuments()
	held := docs[nBase:]
	parts, globals, err := shard.Split(docs[:nBase], nShards)
	if err != nil {
		b.Fatal(err)
	}
	engines := make([]*core.Engine, len(parts))
	for i, p := range parts {
		ix, err := index.BuildFrom(corpus.Schema(), 0, p)
		if err != nil {
			b.Fatal(err)
		}
		engines[i] = core.New(ix, nil, core.Options{})
	}
	cluster, err := shard.NewCluster(engines, globals)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := cluster.Save(dir); err != nil {
		b.Fatal(err)
	}
	ing, err := Open(dir, Options{RefreshEvery: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer ing.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < batch; j++ {
			if _, err := ing.Add(held[(i*batch+j)%len(held)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := ing.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
