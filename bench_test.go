package csrank

// Benchmark harness: one bench per table/figure of the paper's §6
// evaluation, plus micro-benchmarks for the §3.2 cost model and ablations
// for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// The shared experimental system (corpus + index + selected views) is
// built once per process.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"csrank/internal/core"
	"csrank/internal/corpus"
	"csrank/internal/experiments"
	"csrank/internal/index"
	"csrank/internal/mining"
	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/selection"
	"csrank/internal/views"
)

var (
	benchOnce  sync.Once
	benchSetup *experiments.Setup
	benchErr   error
)

func getBenchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	benchOnce.Do(func() {
		scale := experiments.DefaultScale()
		scale.NumDocs = 12000
		scale.OntologyTerms = 250
		scale.NumTopics = 30
		scale.TCFraction = 0.015
		benchSetup, benchErr = experiments.NewSetup(scale)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSetup
}

// benchWorkload caches the Figure 7/8 query workloads.
var (
	workloadOnce  sync.Once
	largeWorkload experiments.Workload
	smallWorkload experiments.Workload
)

func getWorkloads(b *testing.B) (large, small experiments.Workload) {
	s := getBenchSetup(b)
	workloadOnce.Do(func() {
		largeWorkload = experiments.GenerateWorkload(s, 25, s.Scale.TC(), int64(s.Scale.NumDocs)+1, 42)
		smallWorkload = experiments.GenerateWorkload(s, 25, 1, s.Scale.TC(), 43)
	})
	return largeWorkload, smallWorkload
}

// BenchmarkFig6RankingQuality regenerates Figure 6: both rankings of the
// full 30-topic benchmark, reporting the headline means as metrics.
func BenchmarkFig6RankingQuality(b *testing.B) {
	s := getBenchSetup(b)
	var r experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunFig6(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ConvSummary.MeanPrecision, "conv-P@20")
	b.ReportMetric(r.CtxSummary.MeanPrecision, "ctx-P@20")
	b.ReportMetric(r.ConvSummary.MRR, "conv-MRR")
	b.ReportMetric(r.CtxSummary.MRR, "ctx-MRR")
	b.ReportMetric(float64(r.CtxWinsP20), "ctx-wins")
}

// runQueryBench measures one evaluation strategy over a workload bucket.
func runQueryBench(b *testing.B, qs []query.Query, eng *core.Engine, plan core.Plan) {
	if len(qs) == 0 {
		b.Skip("workload bucket empty at this scale")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, _, err := eng.Search(context.Background(), q, 20, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7LargeContext regenerates Figure 7: large-context queries
// under the three strategies, per keyword count.
func BenchmarkFig7LargeContext(b *testing.B) {
	s := getBenchSetup(b)
	large, _ := getWorkloads(b)
	for n := 2; n <= 5; n++ {
		qs := large.ByKeywords[n]
		b.Run(fmt.Sprintf("conventional/kw=%d", n), func(b *testing.B) {
			runQueryBench(b, qs, s.WithViews, core.PlanConventional)
		})
		b.Run(fmt.Sprintf("views/kw=%d", n), func(b *testing.B) {
			runQueryBench(b, qs, s.WithViews, "")
		})
		b.Run(fmt.Sprintf("straightforward/kw=%d", n), func(b *testing.B) {
			runQueryBench(b, qs, s.NoViews, core.PlanStraightforward)
		})
	}
}

// BenchmarkFig8SmallContext regenerates Figure 8: small-context queries,
// conventional vs straightforward.
func BenchmarkFig8SmallContext(b *testing.B) {
	s := getBenchSetup(b)
	_, small := getWorkloads(b)
	for n := 2; n <= 5; n++ {
		qs := small.ByKeywords[n]
		b.Run(fmt.Sprintf("conventional/kw=%d", n), func(b *testing.B) {
			runQueryBench(b, qs, s.WithViews, core.PlanConventional)
		})
		b.Run(fmt.Sprintf("straightforward/kw=%d", n), func(b *testing.B) {
			runQueryBench(b, qs, s.NoViews, core.PlanStraightforward)
		})
	}
}

// BenchmarkViewSelection regenerates the §6.2 selection comparison: the
// cost of each selection algorithm at the experiment thresholds.
func BenchmarkViewSelection(b *testing.B) {
	s := getBenchSetup(b)
	cfg := selection.Config{TC: s.Scale.TC(), TV: s.Scale.TV, Seed: 1}
	terms := selection.FrequentPredicateTerms(s.Index, cfg.TC)

	b.Run("mining-apriori", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := selection.DataMiningBased(s.Table, terms, cfg, mining.Apriori); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mining-fpgrowth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := selection.DataMiningBased(s.Table, terms, cfg, mining.FPGrowth); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mining-eclat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := selection.DataMiningBased(s.Table, terms, cfg, mining.Eclat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("graph-decomposition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			selection.GraphDecompositionBased(s.Index, s.Table, terms, cfg)
		}
	})
	b.Run("hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := selection.Hybrid(s.Index, s.Table, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStorageAccounting regenerates the §6.2 storage table and
// reports its headline numbers as metrics.
func BenchmarkStorageAccounting(b *testing.B) {
	s := getBenchSetup(b)
	var r experiments.StorageReport
	for i := 0; i < b.N; i++ {
		r = experiments.RunStorage(s)
	}
	b.ReportMetric(float64(r.Views), "views")
	b.ReportMetric(float64(r.TotalViewBytes)/(1<<20), "view-MB")
	b.ReportMetric(float64(r.IndexBytes)/(1<<20), "index-MB")
	b.ReportMetric(r.MeanViewSize, "mean-tuples")
}

// --- §3.2 cost-model micro-benchmarks ---------------------------------

func randomList(rng *rand.Rand, n int, max uint32, seg int) *postings.List {
	seen := make(map[uint32]bool, n)
	for len(seen) < n {
		seen[rng.Uint32()%max] = true
	}
	ids := make([]uint32, 0, n)
	for id := range seen {
		ids = append(ids, id)
	}
	sortUint32(ids)
	ps := make([]postings.Posting, len(ids))
	for i, id := range ids {
		ps[i] = postings.Posting{DocID: id, TF: uint32(1 + rng.Intn(5))}
	}
	return postings.NewList(ps, seg)
}

func sortUint32(ids []uint32) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// BenchmarkIntersection compares the skip-pointer intersection against
// the plain merge, in the regime where skips pay (|L_i| ≪ |L_j|) and
// where they cannot (similar lengths).
func BenchmarkIntersection(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	long := randomList(rng, 200000, 1<<24, postings.DefaultSegmentSize)
	short := randomList(rng, 200, 1<<24, postings.DefaultSegmentSize)
	similar := randomList(rng, 180000, 1<<24, postings.DefaultSegmentSize)

	b.Run("skip/selective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			postings.Intersect([]*postings.List{short, long}, nil)
		}
	})
	b.Run("merge/selective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			postings.MergeIntersect(short, long, nil)
		}
	})
	b.Run("skip/similar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			postings.Intersect([]*postings.List{similar, long}, nil)
		}
	})
	b.Run("merge/similar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			postings.MergeIntersect(similar, long, nil)
		}
	})
}

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationSegmentSize sweeps M0: small segments skip more
// precisely but carry more skip entries.
func BenchmarkAblationSegmentSize(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, m0 := range []int{16, 64, 128, 512, 2048} {
		long := randomList(rng, 200000, 1<<24, m0)
		short := randomList(rng, 300, 1<<24, m0)
		b.Run(fmt.Sprintf("M0=%d", m0), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				postings.Intersect([]*postings.List{short, long}, nil)
			}
		})
	}
}

// BenchmarkAblationViewMatch compares the minimal-size view-matching
// policy (§6.3: "the view with the minimal size is picked") against
// taking any usable view.
func BenchmarkAblationViewMatch(b *testing.B) {
	s := getBenchSetup(b)
	large, _ := getWorkloads(b)
	var contexts [][]string
	for n := 2; n <= 5; n++ {
		for _, q := range large.ByKeywords[n] {
			contexts = append(contexts, q.NormalizedContext())
		}
	}
	if len(contexts) == 0 {
		b.Skip("no large contexts")
	}
	b.Run("minimal-size", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := contexts[i%len(contexts)]
			if v := s.Catalog.Match(ctx); v != nil {
				if _, err := v.Answer(ctx, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("first-usable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := contexts[i%len(contexts)]
			if v := s.Catalog.MatchFirst(ctx); v != nil {
				if _, err := v.Answer(ctx, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationDFColumns compares the §6.2 storage optimization
// (df/tc columns only for frequent keywords, rare ones computed at query
// time) against tracking every query keyword, measuring the query-time
// price of the fallback.
func BenchmarkAblationDFColumns(b *testing.B) {
	s := getBenchSetup(b)
	large, _ := getWorkloads(b)
	qs := large.ByKeywords[2]
	if len(qs) == 0 {
		b.Skip("no large contexts")
	}
	// Build two single-view catalogs over the same K: one tracking all
	// query keywords, one tracking none (every keyword falls back).
	ctx := qs[0].NormalizedContext()
	an := s.Index.AnalyzerFor("content")
	var words []string
	for _, q := range qs {
		for _, kw := range q.Keywords {
			words = append(words, an.Analyze(kw)...)
		}
	}
	full, err := views.Materialize(s.Table, ctx, words)
	if err != nil {
		b.Fatal(err)
	}
	bare, err := views.Materialize(s.Table, ctx, nil)
	if err != nil {
		b.Fatal(err)
	}
	q := qs[0]
	engFull := core.New(s.Index, views.NewCatalog([]*views.View{full}, s.Scale.TC(), s.Scale.TV), core.Options{})
	engBare := core.New(s.Index, views.NewCatalog([]*views.View{bare}, s.Scale.TC(), s.Scale.TV), core.Options{})
	b.Run("tracked-df-columns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engFull.Search(context.Background(), q, 20, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fallback-intersections", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engBare.Search(context.Background(), q, 20, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScorerComparison regenerates the scorer-sensitivity extension
// experiment (every ranking model under both statistics sources).
func BenchmarkScorerComparison(b *testing.B) {
	s := getBenchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunScorerComparison(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewMaintenance measures incremental Apply/Remove throughput
// across the whole catalog — the per-document ingestion cost.
func BenchmarkViewMaintenance(b *testing.B) {
	s := getBenchSetup(b)
	terms := selection.FrequentPredicateTerms(s.Index, s.Scale.TC())
	if len(terms) < 3 {
		b.Skip("too few frequent terms")
	}
	u := views.DocUpdate{
		Predicates: terms[:3],
		Len:        120,
		TF:         map[string]int64{"disease": 2, "organ": 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Catalog.Apply(u)
		s.Catalog.Remove(u)
	}
}

// BenchmarkConcurrentThroughput measures multi-goroutine query throughput
// over the mixed large-context workload (the engine is safe for
// concurrent use).
func BenchmarkConcurrentThroughput(b *testing.B) {
	s := getBenchSetup(b)
	large, _ := getWorkloads(b)
	var qs []query.Query
	for n := 2; n <= 5; n++ {
		qs = append(qs, large.ByKeywords[n]...)
	}
	if len(qs) == 0 {
		b.Skip("no workload")
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := qs[i%len(qs)]
			i++
			if _, _, err := s.WithViews.Search(context.Background(), q, 20, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Block-max dynamic pruning ---------------------------------------

var (
	prunedBenchOnce sync.Once
	prunedBenchIx   *index.Index
	prunedBenchErr  error
)

// getPrunedBenchIndex builds a 140k-document corpus spanning three
// posting-list containers, once per process. "alpha" is a broad keyword
// (half the collection, zipf-ish tf 1..20, tf 1 only in the last
// container), "beta" moderate; ctx_broad covers 80% of documents and
// ctx_sel ~6%. Every document has the same analyzed length, so scores
// vary with tf alone and the bound ceilings are tight.
func getPrunedBenchIndex(b *testing.B) *index.Index {
	b.Helper()
	prunedBenchOnce.Do(func() {
		const nDocs = 140000
		const docLen = 40
		pads := []string{"pada", "padb", "padc", "padd", "pade", "padf"}
		docs := make([]index.Document, nDocs)
		var sb strings.Builder
		for i := range docs {
			sb.Reset()
			ta, tb := 0, 0
			if i%2 == 0 {
				ta = 1
				if i < 120000 {
					ta = 1 + int((uint32(i)*2654435761)>>20)%20
				}
			}
			if i%5 == 0 {
				tb = 1 + i%7
			}
			for j := 0; j < ta; j++ {
				sb.WriteString("alpha ")
			}
			for j := 0; j < tb; j++ {
				sb.WriteString("beta ")
			}
			for j := ta + tb; j < docLen; j++ {
				sb.WriteString(pads[(i+j)%len(pads)])
				sb.WriteByte(' ')
			}
			mesh := "ctx_other"
			if i%5 != 0 {
				mesh = "ctx_broad"
			}
			if i%16 == 0 {
				mesh += " ctx_sel"
			}
			docs[i] = index.Document{Fields: map[string]string{
				"title": fmt.Sprintf("d%d", i), "content": sb.String(), "mesh": mesh,
			}}
		}
		prunedBenchIx, prunedBenchErr = index.BuildFrom(corpus.Schema(), 0, docs)
	})
	if prunedBenchErr != nil {
		b.Fatal(prunedBenchErr)
	}
	return prunedBenchIx
}

// BenchmarkPrunedSearch measures block-max dynamic pruning against
// exhaustive scoring on identical queries: every scorer, k ∈ {10, 100},
// a broad single-keyword contextual query (56k-document conjunction —
// the case the pruned path must win by ≥2x at k=10) and a selective
// two-keyword one (1.8k documents — the case pruning can barely help).
// Rankings are bit-identical either way (TestPrunedBitIdenticalToExhaustive);
// allocation deltas also show the pooled scoring scratch at work.
func BenchmarkPrunedSearch(b *testing.B) {
	ix := getPrunedBenchIndex(b)
	queries := []struct{ label, q string }{
		{"broad", "alpha | ctx_broad"},
		{"selective", "alpha beta | ctx_sel"},
	}
	for _, sc := range ranking.All() {
		for _, qc := range queries {
			q := query.MustParse(qc.q)
			for _, k := range []int{10, 100} {
				for _, pruned := range []bool{false, true} {
					mode := "exhaustive"
					if pruned {
						mode = "pruned"
					}
					name := fmt.Sprintf("%s/%s/k=%d/%s", sc.Name(), qc.label, k, mode)
					b.Run(name, func(b *testing.B) {
						e := core.New(ix, nil, core.Options{Scorer: sc, Pruning: pruned})
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if _, _, err := e.Search(context.Background(), q, k, ""); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}

// stridedList builds a list of n docIDs start, start+stride, … — at
// stride ≤ 16 each 2^16 range holds ≥ 4096 entries, so the adaptive
// layer stores it as bitset chunks.
func stridedList(start, stride uint32, n int) *postings.List {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = start + uint32(i)*stride
	}
	return postings.FromDocIDs(ids, postings.DefaultSegmentSize)
}

// BenchmarkIntersect measures the adaptive-container intersection
// kernels on the list shapes that dominate context evaluation: count-only
// conjunctions of dense predicate lists (word-AND + popcount), a sparse
// keyword list against a dense context (galloping probes), and the
// materializing path.
func BenchmarkIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	denseA := stridedList(0, 3, 500000) // 1/3 of docs up to 1.5M
	denseB := stridedList(0, 4, 375000) // 1/4
	denseC := stridedList(0, 5, 300000) // 1/5
	sparse := randomList(rng, 2000, 1500000, postings.DefaultSegmentSize)
	var sink int64

	b.Run("count/dense-dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += postings.IntersectionSize([]*postings.List{denseA, denseB}, nil)
		}
	})
	b.Run("count/sparse-dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += postings.IntersectionSize([]*postings.List{sparse, denseA}, nil)
		}
	})
	b.Run("count/three-way-dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += postings.IntersectionSize([]*postings.List{denseA, denseB, denseC}, nil)
		}
	})
	b.Run("materialize/dense-dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := postings.Intersect([]*postings.List{denseA, denseB}, nil)
			sink += int64(r.Len())
		}
	})
	_ = sink
}

// BenchmarkContextStats measures the §3.2.1 statistics computations on a
// large context, kernel by kernel: γ_count/γ_sum over two dense predicate
// lists (CountSum), a keyword's df/tc by conjunction with those lists
// (CountTFSum), the two together ("full" — what a view's fallback
// keywords still pay), and the straightforward plan's form of the same
// work ("full-materialized": the context built once during the CountSum
// pass, df/tc probed against it). The engine-level figures by context
// size are internal/core's BenchmarkContextStats.
func BenchmarkContextStats(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ctx := []*postings.List{stridedList(0, 3, 500000), stridedList(0, 4, 375000)}
	kw := randomList(rng, 3000, 1500000, postings.DefaultSegmentSize)
	lens := make([]int32, 1500001)
	for d := range lens {
		lens[d] = int32(d%300) + 40
	}
	param := func(d uint32) int64 { return int64(lens[d]) }
	var sink int64

	b.Run("count-sum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, s := postings.CountSum(ctx, param, nil)
			sink += c + s
		}
	})
	b.Run("keyword-df-tc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			df, tc := postings.CountTFSum(kw, ctx, nil)
			sink += df + tc
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, s := postings.CountSum(ctx, param, nil)
			df, tc := postings.CountTFSum(kw, ctx, nil)
			sink += c + s + df + tc
		}
	})
	b.Run("full-materialized", func(b *testing.B) {
		b.ReportAllocs()
		bg := context.Background()
		for i := 0; i < b.N; i++ {
			set, err := postings.NewContextSet(bg, ctx, lens, nil)
			if err != nil {
				b.Fatal(err)
			}
			df, tc, _ := set.CountTFSum(bg, kw, nil)
			sink += set.Count() + set.Sum() + df + tc
			set.Release()
		}
	})
	_ = sink
}

// BenchmarkCodec measures the compressed-persistence codec.
func BenchmarkCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	l := randomList(rng, 100000, 1<<22, postings.DefaultSegmentSize)
	ps := l.Postings()
	data := postings.EncodePostings(ps)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(ps) * 8))
		for i := 0; i < b.N; i++ {
			postings.EncodePostings(ps)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(ps) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := postings.DecodePostings(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResultCache measures the serving-layer result cache: the
// cost of a cached hit (key build + tag build + lookup + slice copies)
// against re-executing the identical query through the full two-phase
// scatter-gather, on the same 4-shard engine.
func BenchmarkResultCache(b *testing.B) {
	build := func(cached bool) *ShardedEngine {
		opts := BuildOptions{}
		if cached {
			opts.Cache = CacheOptions{ResultBytes: 64 << 20}
		}
		bl := NewBuilder()
		rebuildDemoDocs(bl)
		se, err := bl.BuildSharded(4, opts)
		if err != nil {
			b.Fatal(err)
		}
		return se
	}
	const q = "pancreas leukemia | digestive_system"
	b.Run("hit", func(b *testing.B) {
		se := build(true)
		if _, _, err := se.Search(q, 10); err != nil { // warm the entry
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := se.Search(q, 10)
			if err != nil {
				b.Fatal(err)
			}
			if !st.ResultCacheHit {
				b.Fatal("miss on a warmed cache")
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		se := build(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := se.Search(q, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}
