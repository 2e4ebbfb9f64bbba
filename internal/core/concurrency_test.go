package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// bigResultCollection builds an index where one query matches thousands
// of documents: every document holds "disease" and ctx_a.
func bigResultCollection(t testing.TB, n int) *index.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	docs := make([]index.Document, n)
	for i := range docs {
		content := "disease"
		for j := 0; j < rng.Intn(4); j++ {
			content += " disease"
		}
		for j := 0; j < rng.Intn(3); j++ {
			content += " organ"
		}
		for j := 0; j < 5+rng.Intn(40); j++ {
			content += fmt.Sprintf(" filler%d", rng.Intn(500))
		}
		mesh := "ctx_a"
		if i%3 == 0 {
			mesh += " ctx_b"
		}
		docs[i] = index.Document{Fields: map[string]string{
			"title": fmt.Sprintf("doc %d", i), "content": content, "mesh": mesh,
		}}
	}
	ix, err := index.BuildFrom(corpus.Schema(), 0, docs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// assertBitIdentical fails unless both rankings agree exactly — same
// DocIDs in the same order with bit-for-bit equal scores.
func assertBitIdentical(t *testing.T, label string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: result counts differ: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i].DocID != got[i].DocID ||
			math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			t.Fatalf("%s: rank %d differs: %+v vs %+v", label, i, want[i], got[i])
		}
	}
}

// goroutineScorer wraps pivoted TF-IDF and records the highest
// goroutine count it observes while scoring or bounding.
type goroutineScorer struct {
	*ranking.PivotedTFIDF
	peak atomic.Int64
}

func (g *goroutineScorer) observe() {
	n := int64(runtime.NumGoroutine())
	for {
		old := g.peak.Load()
		if n <= old || g.peak.CompareAndSwap(old, n) {
			return
		}
	}
}

func (g *goroutineScorer) ScoreIndexed(q ranking.QueryStats, d ranking.DocStats, c ranking.CollectionStats) float64 {
	g.observe()
	return g.PivotedTFIDF.ScoreIndexed(q, d, c)
}

func (g *goroutineScorer) UpperBound(q ranking.QueryStats, maxTF, minLen int32, c ranking.CollectionStats) float64 {
	g.observe()
	return g.PivotedTFIDF.UpperBound(q, maxTF, minLen, c)
}

// TestSearchRunsOnOneGoroutine pins the engine's concurrency model: a
// single-engine search runs entirely on its caller's goroutine. Over a
// result of thousands of documents it starts no goroutine in the walk
// with or without pruning, or while computing the df/tc of the keywords
// a view does not track.
func TestSearchRunsOnOneGoroutine(t *testing.T) {
	ix := bigResultCollection(t, 4000)
	tbl := widetable.FromIndex(ix, []string{"disease"})
	v, err := views.Materialize(tbl, []string{"ctx_a"}, []string{"disease"})
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 100, 4096)
	sc := &goroutineScorer{PivotedTFIDF: ranking.NewPivotedTFIDF()}
	defer func() { testHookKeywordStats = nil }()
	testHookKeywordStats = func(int) { sc.observe() }
	for _, tc := range []struct {
		name     string
		eng      *Engine
		q        string
		pruned   bool
		fallback int
	}{
		{"pruned", New(ix, nil, Options{Scorer: sc, Pruning: true}), "disease organ | ctx_a", true, 0},
		{"exhaustive", New(ix, nil, Options{Scorer: sc}), "disease organ | ctx_a", false, 0},
		{"view fallback", New(ix, cat, Options{Scorer: sc}), "disease organ filler7 | ctx_a", false, 2},
	} {
		base := int64(runtime.NumGoroutine())
		sc.peak.Store(0)
		res, st, err := tc.eng.SearchCtx(context.Background(), query.MustParse(tc.q), 10)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res) == 0 || (st.Pruning.BoundChecks > 0) != tc.pruned || st.FallbackKeywords != tc.fallback {
			t.Fatalf("%s: %d results, %d bound checks, %d fallback keywords: wrong path", tc.name, len(res), st.Pruning.BoundChecks, st.FallbackKeywords)
		}
		if peak := sc.peak.Load(); peak == 0 || peak > base {
			t.Fatalf("%s: %d goroutines while scoring, %d before the search", tc.name, peak, base)
		}
	}
}

// TestConcurrentQueriesRaceStress hammers one engine with views enabled
// from many goroutines. Run under -race (the CI workflow does) to hunt
// data races between concurrent queries, the pooled context sets and the
// pooled scoring scratch.
func TestConcurrentQueriesRaceStress(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, []string{"pancreas", "leukemia"})
	v, err := views.Materialize(tbl, []string{"digestive_system"}, []string{"pancreas", "leukemia"})
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 100, 4096)
	e := New(ix, cat, Options{})
	queries := []string{
		"pancreas leukemia | digestive_system",
		"leukemia | neoplasms",
		"pancreas | digestive_system",
		"pancreas leukemia tumor | digestive_system",
		"leukemia lymphoma | neoplasms",
		"surgery outcome | digestive_system",
	}
	want := make([][]Result, len(queries))
	for i, qs := range queries {
		if want[i], _, err = e.SearchCtx(context.Background(), query.MustParse(qs), 5); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				qi := (g + i) % len(queries)
				got, _, err := e.SearchCtx(context.Background(), query.MustParse(queries[qi]), 5)
				if err != nil {
					errs <- err
					return
				}
				for j := range want[qi] {
					if got[j].DocID != want[qi][j].DocID {
						errs <- fmt.Errorf("query %d rank %d changed under concurrency", qi, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
