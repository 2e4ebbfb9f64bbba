package shard

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"csrank/internal/core"
	"csrank/internal/query"
)

// TestSwapUnderQueryStorm swaps one shard's engine (catalog-less ↔
// view-accelerated twins of the same partition, which rank identically
// by the views-are-acceleration contract) while a storm of concurrent
// sharded searches runs. Under -race this is the proof the fan-out
// never reads serving state unsynchronized; the assertions prove
// results stay bit-identical to the single-engine reference across
// every swap, and that no query observes a stale generation: a search
// started after Swap(gen) returned must report generation ≥ gen for
// that shard.
func TestSwapUnderQueryStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	docs, meshTerms, words := randomDocs(rng, 300, 6, 6)
	fullIx := buildIndex(t, docs, 16)
	single := core.New(fullIx, nil, core.Options{})

	parts, globals, err := Split(docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix0 := buildIndex(t, parts[0], 16)
	ix1 := buildIndex(t, parts[1], 16)
	// Two equivalent engines for shard 0: with and without a view
	// catalog. Swapping between them changes the statistics plan, never
	// the ranking.
	plain := core.New(ix0, nil, core.Options{})
	viewed := core.New(ix0, shardCatalog(t, rng, ix0, meshTerms, words), core.Options{})
	cluster, err := NewCluster([]*core.Engine{plain, core.New(ix1, nil, core.Options{})}, globals)
	if err != nil {
		t.Fatal(err)
	}

	queries := make([]query.Query, 6)
	references := make([][]core.Result, len(queries))
	for i := range queries {
		queries[i] = randomQuery(rng, meshTerms, words)
		references[i], _, err = single.Search(context.Background(), queries[i], 10, "")
		if err != nil {
			t.Fatal(err)
		}
	}

	// published is the highest generation Swap has returned for; a
	// query that reads published before fanning out must observe at
	// least that generation on shard 0.
	var published atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				qi := (g + i) % len(queries)
				floor := published.Load()
				hits, sum, err := cluster.Search(context.Background(), queries[qi], 10)
				if err != nil {
					t.Error(err)
					return
				}
				if sum.Generations[0] < floor {
					t.Errorf("stale generation %d observed after %d was published", sum.Generations[0], floor)
					return
				}
				want := references[qi]
				if len(hits) != len(want) {
					t.Errorf("q=%v: %d hits, want %d", queries[qi], len(hits), len(want))
					return
				}
				for r := range want {
					if hits[r].Global != want[r].DocID || hits[r].Score != want[r].Score {
						t.Errorf("q=%v rank %d: (%d, %v), want (%d, %v) — ranking changed across swap",
							queries[qi], r, hits[r].Global, hits[r].Score, want[r].DocID, want[r].Score)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		engines := []*core.Engine{plain, viewed}
		for gen := uint64(1); gen <= 80; gen++ {
			if _, _, err := cluster.Swap(0, engines[gen%2], gen); err != nil {
				t.Error(err)
				return
			}
			published.Store(gen)
		}
	}()
	wg.Wait()

	// After the storm the final swap must be visible to a fresh query.
	_, sum, err := cluster.Search(context.Background(), queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Generations[0] != 80 {
		t.Fatalf("final generation %d, want 80", sum.Generations[0])
	}
}

// TestSwapValidation: a replacement engine holding a different document
// partition is rejected, and out-of-range shard indices error.
func TestSwapValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	docs, _, _ := randomDocs(rng, 100, 4, 4)
	parts, globals, err := Split(docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	e0 := core.New(buildIndex(t, parts[0], 16), nil, core.Options{})
	e1 := core.New(buildIndex(t, parts[1], 16), nil, core.Options{})
	c, err := NewCluster([]*core.Engine{e0, e1}, globals)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Swap(0, e1, 1); err == nil && len(parts[0]) != len(parts[1]) {
		t.Fatal("engine with a different partition accepted")
	}
	if _, _, err := c.Swap(5, e0, 1); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if _, _, err := c.Swap(0, e0, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.Generations()[0]; got != 2 {
		t.Fatalf("generation %d after swap, want 2", got)
	}
}
