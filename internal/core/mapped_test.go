package core

import (
	"context"
	"path/filepath"
	"testing"

	"csrank/internal/index"
	"csrank/internal/query"
)

// TestMappedSkipsBlocksUndecoded asserts the point of the lazy reader:
// on a broad pruned query over a freshly opened index, containers
// dismissed by their directory bounds must be counted as never
// decompressed.
func TestMappedSkipsBlocksUndecoded(t *testing.T) {
	hx, _ := buildPrunedSystem(t)
	// A fresh open of the saved image: earlier tests may have
	// materialized blocks in the shared fixture, and the counter is
	// about genuinely cold blocks.
	path := filepath.Join(t.TempDir(), "index.gob")
	if err := hx.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	cold, err := index.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	_, mst, err := New(cold, nil, Options{Pruning: true}).Search(context.Background(), query.MustParse("alpha"), 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if mst.Pruning.ContainersSkipped == 0 {
		t.Fatal("fixture lost its skippable container")
	}
	if mst.Pruning.ContainersSkippedUndecoded == 0 {
		t.Fatal("the engine decoded every skipped container: the dismiss-before-decompress path is dead")
	}
	t.Logf("containers skipped=%d, undecoded=%d, docs skipped=%d",
		mst.Pruning.ContainersSkipped, mst.Pruning.ContainersSkippedUndecoded, mst.Pruning.DocsSkipped)
}

// BenchmarkPrunedSearchMapped measures pruned top-k latency on the
// multi-container corpus; block decoding amortizes across iterations
// through the block cache exactly as a server's would.
func BenchmarkPrunedSearchMapped(b *testing.B) {
	ix, _ := buildPrunedSystem(b)
	e := New(ix, nil, Options{Pruning: true})
	q := query.MustParse("alpha beta")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Search(context.Background(), q, 10, ""); err != nil {
			b.Fatal(err)
		}
	}
}
