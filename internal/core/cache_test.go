package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

func TestStatsCacheHitAndEquality(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	plain := New(ix, nil, Options{})
	cachedEng := New(ix, nil, Options{CacheContexts: 16})
	q := query.MustParse("pancreas leukemia | digestive_system")

	want, _, err := plain.SearchContextSensitiveCtx(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, st1, err := cachedEng.SearchContextSensitiveCtx(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Error("first query reported a cache hit")
	}
	second, st2, err := cachedEng.SearchContextSensitiveCtx(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Error("second query missed the cache")
	}
	for i := range want {
		if first[i] != want[i] || second[i].DocID != want[i].DocID ||
			math.Abs(second[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("rank %d differs across cache states", i)
		}
	}
}

func TestStatsCacheExtendsWithNewKeywords(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	e := New(ix, nil, Options{CacheContexts: 16})
	if _, _, err := e.SearchContextSensitiveCtx(context.Background(), query.MustParse("pancreas | digestive_system"), 5); err != nil {
		t.Fatal(err)
	}
	// Same context, new keyword: still a hit, keyword back-filled.
	res, st, err := e.SearchContextSensitiveCtx(context.Background(), query.MustParse("leukemia | digestive_system"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit {
		t.Error("same-context query missed")
	}
	plain := New(ix, nil, Options{})
	want, _, err := plain.SearchContextSensitiveCtx(context.Background(), query.MustParse("leukemia | digestive_system"), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res[i].DocID != want[i].DocID || math.Abs(res[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("rank %d differs after back-fill", i)
		}
	}
}

// singleShardCache builds a cache with exactly one shard so FIFO order
// is observable regardless of GOMAXPROCS.
func singleShardCache(max int) *statsCache {
	c := &statsCache{shards: make([]cacheShard, 1)}
	c.shards[0] = cacheShard{
		max:     max,
		entries: make(map[string]*cacheEntry, max),
		ring:    make([]string, max),
	}
	return c
}

func TestStatsCacheEviction(t *testing.T) {
	c := singleShardCache(2)
	c.store([]string{"a"}, 1, 10, nil, nil)
	c.store([]string{"b"}, 2, 20, nil, nil)
	c.store([]string{"c"}, 3, 30, nil, nil)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, _, _, ok := c.lookup([]string{"a"}, nil, nil); ok {
		t.Error("oldest entry not evicted")
	}
	if n, _, _, ok := c.lookup([]string{"c"}, nil, nil); !ok || n != 3 {
		t.Error("newest entry missing")
	}
	// The ring wraps: keep inserting well past capacity and verify the
	// bound holds and the freshest entry always survives.
	for i := 0; i < 20; i++ {
		key := []string{string(rune('d' + i))}
		c.store(key, int64(i), 1, nil, nil)
		if c.len() > 2 {
			t.Fatalf("cache grew past max: %d", c.len())
		}
		if _, _, _, ok := c.lookup(key, nil, nil); !ok {
			t.Fatalf("entry %d missing right after store", i)
		}
	}
}

// TestStatsCacheShardedBound checks the sharded cache's global capacity:
// however keys hash, the population stays within the configured maximum
// (rounded up by at most one entry per shard) and fresh stores hit.
func TestStatsCacheShardedBound(t *testing.T) {
	const max = 8
	c := newStatsCache(max)
	for i := 0; i < 100; i++ {
		key := []string{fmt.Sprintf("ctx%d", i)}
		c.store(key, int64(i), 1, nil, nil)
		if _, _, _, ok := c.lookup(key, nil, nil); !ok {
			t.Fatalf("entry %d missing right after store", i)
		}
	}
	if c.len() > max+len(c.shards) {
		t.Fatalf("len = %d exceeds global bound for max %d over %d shards",
			c.len(), max, len(c.shards))
	}
}

// TestStatsCacheSelectiveLookup checks that lookup copies out only the
// requested keywords, not the whole accumulated word map.
func TestStatsCacheSelectiveLookup(t *testing.T) {
	c := newStatsCache(4)
	ctx := []string{"m"}
	c.store(ctx, 5, 50, map[string]dfTC{
		"w1": {1, 10}, "w2": {2, 20}, "w3": {3, 30},
	}, nil)
	_, _, words, ok := c.lookup(ctx, []string{"w2", "absent"}, nil)
	if !ok {
		t.Fatal("miss")
	}
	if len(words) != 1 || words["w2"] != (dfTC{2, 20}) {
		t.Fatalf("words = %v, want only w2", words)
	}
}

// TestStatsCacheCatalogTagging covers the SwapCatalog race: a query in
// flight across a swap can complete its store after the swap's purge,
// and that entry — computed against the old catalog — must never serve
// queries running on the new one.
func TestStatsCacheCatalogTagging(t *testing.T) {
	oldCat := views.NewCatalog(nil, 1, 1)
	newCat := views.NewCatalog(nil, 1, 1)
	c := newStatsCache(4)
	ctx := []string{"m"}

	c.store(ctx, 5, 50, map[string]dfTC{"w1": {1, 10}}, oldCat)
	if n, _, _, ok := c.lookup(ctx, []string{"w1"}, oldCat); !ok || n != 5 {
		t.Fatal("same-catalog lookup missed")
	}

	// The swap purges, then the in-flight query's store lands late.
	c.purge()
	c.store(ctx, 5, 50, map[string]dfTC{"w1": {1, 10}}, oldCat)
	if _, _, _, ok := c.lookup(ctx, []string{"w1"}, newCat); ok {
		t.Fatal("stale old-catalog entry served across the swap")
	}

	// A store for the new catalog resets the entry in place — no
	// old-catalog keyword may survive the reset.
	c.store(ctx, 7, 70, map[string]dfTC{"w2": {2, 20}}, newCat)
	n, totalLen, words, ok := c.lookup(ctx, []string{"w1", "w2"}, newCat)
	if !ok || n != 7 || totalLen != 70 {
		t.Fatalf("new-catalog entry: n=%d len=%d ok=%v", n, totalLen, ok)
	}
	if _, stale := words["w1"]; stale {
		t.Fatal("old-catalog keyword survived the reset")
	}
	if words["w2"] != (dfTC{2, 20}) {
		t.Fatalf("words = %v", words)
	}
	if _, _, _, ok := c.lookup(ctx, nil, oldCat); ok {
		t.Fatal("reset entry still serves the old catalog")
	}
}

func TestStatsCacheDisabled(t *testing.T) {
	if newStatsCache(0) != nil {
		t.Error("zero-size cache should be nil")
	}
	var c *statsCache
	// nil cache is a no-op everywhere.
	c.store([]string{"a"}, 1, 1, nil, nil)
	if _, _, _, ok := c.lookup([]string{"a"}, nil, nil); ok {
		t.Error("nil cache returned a hit")
	}
	if c.len() != 0 {
		t.Error("nil cache has length")
	}
}

func TestCostBasedPrefersStraightforwardForTinyContexts(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, nil)
	// One view covering both predicate terms; "neoplasms ∧
	// digestive_system" is an (empty) tiny context, yet the view is
	// usable for it.
	v, err := views.Materialize(tbl, []string{"digestive_system", "neoplasms"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := views.NewCatalog([]*views.View{v}, 100, 4096)

	always := New(ix, cat, Options{})
	costed := New(ix, cat, Options{CostBased: true})

	// Large context: both engines should use the view (its size, ≤ 4
	// groups, undercuts Σ|L_m| ≈ 302 × (n+1)).
	big := query.MustParse("pancreas leukemia | digestive_system")
	_, stAlways, err := always.SearchContextSensitiveCtx(context.Background(), big, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, stCosted, err := costed.SearchContextSensitiveCtx(context.Background(), big, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !stAlways.UsedView || !stCosted.UsedView {
		t.Errorf("large context: views not used (always=%v, costed=%v)",
			stAlways.UsedView, stCosted.UsedView)
	}
}

func TestCostBasedSkipsViewWhenScanDominates(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, nil)
	// Inflate the view with many irrelevant keyword columns so its group
	// count dwarfs the straightforward bound for a rare context term.
	terms := ix.Terms("mesh")
	v, err := views.Materialize(tbl, terms, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Give the collection a rare predicate by picking the context with
	// the smallest list: here both terms are frequent, so synthesize the
	// comparison directly through viewWorthwhile.
	e := New(ix, views.NewCatalog([]*views.View{v}, 100, 4096), Options{CostBased: true})
	a := analyzed{kwTerms: []string{"w"}, context: []string{"digestive_system"}}
	ctx := []*postings.List{ix.Postings("mesh", "digestive_system")}
	// straight bound = 302 × 2 = 604; decision tracks the view size.
	if v.Size() < 604 && !e.viewWorthwhile(v, a, ctx) {
		t.Error("cheap view rejected")
	}
	if v.Size() >= 604 && e.viewWorthwhile(v, a, ctx) {
		t.Error("expensive view accepted")
	}
	// Nil context lists (unknown term): bound 0, view never worthwhile.
	if e.viewWorthwhile(v, a, []*postings.List{nil}) {
		t.Error("view accepted against empty context bound")
	}
}
