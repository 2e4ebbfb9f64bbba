package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/selection"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// bigResultCollection builds an index where one query matches thousands
// of documents, so partitioned scoring actually splits into chunks.
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

// TestParallelScoringDeterministicOnLargeResult drives the partitioned
// scoring path (thousands of matches, several chunks) and checks the
// merged top-k is bit-identical to the sequential heap at every k.
func TestParallelScoringDeterministicOnLargeResult(t *testing.T) {
	ix := bigResultCollection(t, 4000)
	seq := New(ix, nil, Options{Parallelism: 1})
	par := New(ix, nil, Options{Parallelism: 4})
	for _, qs := range []string{"disease | ctx_a", "disease organ | ctx_a ctx_b", "disease disease organ | ctx_b"} {
		q := query.MustParse(qs)
		for _, k := range []int{1, 10, 0} {
			want, _, err := seq.SearchContextSensitiveCtx(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := par.SearchContextSensitiveCtx(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s k=%d", qs, k), want, got)
		}
	}
}

// parallelTestSystem builds a generated corpus with selected views, plus
// a deterministic 200-query workload mixing keyword counts and contexts.
func parallelTestSystem(t testing.TB) (*index.Index, *views.Catalog, []query.Query) {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 3000
	cfg.OntologyTerms = 100
	cfg.NumTopics = 0
	cfg.Seed = 5
	c, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := c.BuildIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := selection.Select(ix, selection.Config{TC: int64(cfg.NumDocs) / 25, TV: 4096})
	if err != nil {
		t.Fatal(err)
	}
	words := selection.TrackedContentWords(ix, 60)
	terms := ix.Terms("mesh")
	if len(words) < 4 || len(terms) < 2 {
		t.Fatal("corpus too sparse for workload generation")
	}
	rng := rand.New(rand.NewSource(99))
	qs := make([]query.Query, 0, 200)
	for len(qs) < 200 {
		nk := 1 + rng.Intn(4)
		var kws []string
		for i := 0; i < nk; i++ {
			kws = append(kws, words[rng.Intn(len(words))])
		}
		nc := 1 + rng.Intn(2)
		var ctx []string
		for i := 0; i < nc; i++ {
			ctx = append(ctx, terms[rng.Intn(len(terms))])
		}
		qs = append(qs, query.Query{Keywords: kws, Context: ctx})
	}
	return ix, m.Catalog, qs
}

// TestParallelSearchDeterminism asserts that parallel Search output is
// bit-identical to Parallelism: 1 across k ∈ {1, 10, all} on 200 seeded
// queries, with and without views, with and without the stats cache.
func TestParallelSearchDeterminism(t *testing.T) {
	ix, cat, qs := parallelTestSystem(t)
	engines := []struct {
		label    string
		seq, par *Engine
	}{
		{"views",
			New(ix, cat, Options{Parallelism: 1}),
			New(ix, cat, Options{Parallelism: 4})},
		{"straightforward",
			New(ix, nil, Options{Parallelism: 1}),
			New(ix, nil, Options{Parallelism: 4})},
		{"cached",
			New(ix, cat, Options{Parallelism: 1, CacheContexts: 32}),
			New(ix, cat, Options{Parallelism: 4, CacheContexts: 32})},
	}
	for _, pair := range engines {
		for qi, q := range qs {
			for _, k := range []int{1, 10, 0} {
				want, _, err := pair.seq.SearchCtx(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := pair.par.SearchCtx(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, fmt.Sprintf("%s q%d k=%d", pair.label, qi, k), want, got)
			}
		}
	}
}

// TestParallelEngineRaceStress hammers one engine — views, sharded stats
// cache and intra-query parallelism all enabled — from many goroutines.
// Run under -race (the CI workflow does) to hunt data races between the
// phase-overlap goroutine, the stats worker pool, the scoring partitions
// and the cache shards.
func TestParallelEngineRaceStress(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, []string{"pancreas", "leukemia"})
	v, err := views.Materialize(tbl, []string{"digestive_system"}, []string{"pancreas", "leukemia"})
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 100, 4096)
	e := New(ix, cat, Options{Parallelism: 4, CacheContexts: 4})
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
