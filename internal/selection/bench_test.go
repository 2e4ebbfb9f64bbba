package selection

import (
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

var (
	tableSink   *widetable.Table
	resultSink  Result
	catalogSink *views.Catalog
)

// BenchmarkSelect times Select's three stages on one shard of csbench's
// data dir (24 000 documents of corpus.DefaultConfig() split over 4
// shards, about 6 000 each; T_C = 1 % of the shard, T_V = 4096):
// building the wide table, the Hybrid selection over it (KAG,
// decomposition, mining of clique remainders) and materializing the
// chosen views.
func BenchmarkSelect(b *testing.B) {
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 24000
	ix := splitShards(b, cfg, 4)[0]
	sc := shardConfig(ix, cfg.Seed)
	words := TrackedContentWords(ix, sc.TC)
	tbl := widetable.FromIndex(ix, words)
	res, err := Hybrid(ix, tbl, sc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tableSink = widetable.FromIndex(ix, words)
		}
	})
	b.Run("hybrid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if resultSink, err = Hybrid(ix, tbl, sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if catalogSink, err = MaterializeAll(tbl, res.KeySets, tbl.TrackedWords(), sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
