package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"csrank/internal/query"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// TestSwapCatalogChangesPlan swaps a catalog into an engine built
// without one and back out, checking the plan flips between
// straightforward and view-based at each swap.
func TestSwapCatalogChangesPlan(t *testing.T) {
	ix, meshTerms, words := randomCollection(t, rand.New(rand.NewSource(13)), 400, 6, 3)
	tbl := widetable.FromIndex(ix, words)
	v, err := views.Materialize(tbl, meshTerms[:3], words)
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 1, 1<<20)

	eng := New(ix, nil, Options{})
	q := query.Query{Keywords: []string{words[0]}, Context: meshTerms[:2]}

	_, st, err := eng.Search(context.Background(), q, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.UsedView || st.Plan != PlanStraightforward {
		t.Fatalf("no catalog installed, yet plan %q (view %v)", st.Plan, st.UsedView)
	}

	eng.SwapCatalog(cat)
	if eng.Catalog() != cat {
		t.Fatal("Catalog() does not reflect the swap")
	}
	_, st, err = eng.Search(context.Background(), q, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedView || st.Plan != PlanView {
		t.Fatalf("swapped-in catalog not consulted: plan %q (view %v)", st.Plan, st.UsedView)
	}

	eng.SwapCatalog(nil)
	_, st, err = eng.Search(context.Background(), q, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.UsedView || st.Plan != PlanStraightforward {
		t.Fatalf("catalog swapped out, yet plan %q (view %v)", st.Plan, st.UsedView)
	}
}

// TestSwapCatalogPreservesRanking: with and without a catalog the
// rankings must be identical (views are an acceleration, not a
// different scoring function), so a swap mid-stream is invisible in
// results.
func TestSwapCatalogPreservesRanking(t *testing.T) {
	ix, meshTerms, words := randomCollection(t, rand.New(rand.NewSource(17)), 400, 6, 3)
	tbl := widetable.FromIndex(ix, words)
	v, err := views.Materialize(tbl, meshTerms[:3], words)
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 1, 1<<20)
	eng := New(ix, nil, Options{})
	q := query.Query{Keywords: []string{words[0], words[1]}, Context: meshTerms[:1]}

	before, _, err := eng.Search(context.Background(), q, 20, "")
	if err != nil {
		t.Fatal(err)
	}
	eng.SwapCatalog(cat)
	after, st, err := eng.Search(context.Background(), q, 20, "")
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedView {
		t.Fatal("catalog not consulted after swap")
	}
	if len(before) != len(after) {
		t.Fatalf("result count changed across swap: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("rank %d changed across swap: %+v vs %+v", i, before[i], after[i])
		}
	}
}

// TestSwapCatalogConcurrentWithQueries hammers searches while catalogs
// swap in and out; run under -race this is the proof the query path
// never reads the catalog field unsynchronized.
func TestSwapCatalogConcurrentWithQueries(t *testing.T) {
	ix, meshTerms, words := randomCollection(t, rand.New(rand.NewSource(19)), 200, 6, 2)
	tbl := widetable.FromIndex(ix, words)
	v, err := views.Materialize(tbl, meshTerms[:2], words)
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 1, 1<<20)
	eng := New(ix, nil, Options{})
	q := query.Query{Keywords: []string{words[0]}, Context: meshTerms[:1]}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, _, err := eng.Search(context.Background(), q, 5, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			eng.SwapCatalog(cat)
			eng.SwapCatalog(nil)
		}
	}()
	wg.Wait()
}

// TestServingSwap checks the generation-tagged engine swap: consistent
// (engine, generation) pairs, old pair returned, request-granularity
// pickup.
func TestServingSwap(t *testing.T) {
	ix, _, _ := randomCollection(t, rand.New(rand.NewSource(23)), 100, 4, 2)
	e1 := New(ix, nil, Options{})
	e2 := New(ix, nil, Options{})

	s := NewServing(e1, 1)
	if eng, gen := s.Snapshot(); eng != e1 || gen != 1 {
		t.Fatalf("initial state (%p, %d), want (%p, 1)", eng, gen, e1)
	}
	oldEng, oldGen := s.Swap(e2, 7)
	if oldEng != e1 || oldGen != 1 {
		t.Fatalf("swap returned (%p, %d), want (%p, 1)", oldEng, oldGen, e1)
	}
	if s.Engine() != e2 || s.Generation() != 7 {
		t.Fatal("swap not visible")
	}

	// Concurrent swaps and reads stay consistent pairs.
	var wg sync.WaitGroup
	engines := map[*Engine]uint64{e1: 101, e2: 102}
	for eng, gen := range engines {
		wg.Add(1)
		go func(eng *Engine, gen uint64) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Swap(eng, gen)
			}
		}(eng, gen)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			eng, gen := s.Snapshot()
			if want, ok := engines[eng]; ok && gen != want && gen != 7 {
				t.Errorf("torn pair: engine tagged %d", gen)
				return
			}
		}
	}()
	wg.Wait()
}
