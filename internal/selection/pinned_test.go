package selection

import (
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/shard"
)

// splitShards generates corpus cfg, hash-splits its documents over n
// shards as csbuild -shards does, and builds each shard's index.
func splitShards(tb testing.TB, cfg corpus.Config, n int) []*index.Index {
	tb.Helper()
	c, err := corpus.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	parts, _, err := shard.Split(c.IndexDocuments(), n)
	if err != nil {
		tb.Fatal(err)
	}
	ixs := make([]*index.Index, n)
	for i, part := range parts {
		if ixs[i], err = index.BuildFrom(corpus.Schema(), 0, part); err != nil {
			tb.Fatal(err)
		}
	}
	return ixs
}

// shardConfig is the selection csbuild runs on a shard: T_C = 1 % of
// the shard's documents, T_V = 4096.
func shardConfig(ix *index.Index, seed int64) Config {
	tc := int64(0.01 * float64(ix.NumDocs()))
	if tc < 1 {
		tc = 1
	}
	return Config{TC: tc, TV: 4096, Seed: seed}
}

// TestSelectFingerprintsPinned pins the catalog Fingerprint of every
// shard of a fixed-seed 4-shard split of corpus.DefaultConfig(), T_C = 1 %
// of the shard. The values were recorded at the commit before the KAG was
// counted from the table's rows and the tf columns became sorted slices;
// any change to what Select picks or materializes moves them, and with
// them the statistics every ranking reads. At T_V = 4096 each shard's
// whole KAG fits one view; T_V = 1024 also runs the separators, the
// support oracle and, on shard 3, the mining of a clique remainder.
func TestSelectFingerprintsPinned(t *testing.T) {
	want := map[int][]string{
		4096: {"048e49a9d059c15c", "3cef44989b0cc32b", "e0f4a46e3e0acec0", "0d4aeb9a53ddde20"},
		1024: {"e96958f3595599ad", "0fab2189e8abf871", "a6531072fc75b30f", "0a2e45326506fb57"},
	}
	cfg := corpus.DefaultConfig()
	ixs := splitShards(t, cfg, 4)
	for _, tv := range []int{4096, 1024} {
		for i, ix := range ixs {
			sc := shardConfig(ix, cfg.Seed)
			sc.TV = tv
			m, err := Select(ix, sc)
			if err != nil {
				t.Fatalf("T_V=%d shard %d: %v", tv, i, err)
			}
			if got := m.Catalog.Fingerprint(); got != want[tv][i] {
				t.Errorf("T_V=%d shard %d (%d docs, %d views): Fingerprint %s, want %s", tv, i, ix.NumDocs(), m.Catalog.Len(), got, want[tv][i])
			}
		}
	}
}
