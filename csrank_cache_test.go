package csrank

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csrank/internal/query"
)

// cacheScorers is every ranking model the result cache must preserve
// bit-identically.
var cacheScorers = []Scorer{PivotedTFIDF, BM25, DirichletLM, CosineTFIDF, JelinekMercerLM}

// cacheDocs queues a compact contextual corpus: small enough that the
// live tests' per-Add synchronous refresh stays cheap, rich enough that
// views materialize, pruning has blocks to skip, and ties exercise the
// rank-safe merge.
func cacheDocs(b *Builder) {
	b.Add(Document{
		Title:      "Complications following pancreas transplant",
		Body:       "pancreas pancreas transplant complications leukemia",
		Predicates: []string{"digestive_system"},
	})
	for i := 0; i < 40; i++ {
		b.Add(Document{
			Title:      fmt.Sprintf("Leukemia cohort study %d", i),
			Body:       "leukemia lymphoma tumor outcomes",
			Predicates: []string{"neoplasms"},
		})
	}
	for i := 0; i < 20; i++ {
		body := "pancreas liver gastric surgery"
		if i < 3 {
			body += " leukemia"
		}
		b.Add(Document{
			Title:      fmt.Sprintf("Digestive surgery outcomes %d", i),
			Body:       body,
			Predicates: []string{"digestive_system"},
		})
	}
}

// assertSameHits fails unless got equals want exactly — docID, title,
// and bit-for-bit score.
func assertSameHits(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestResultCacheBitIdentical is the tentpole property test: across
// every scorer × pruning on/off × shard counts {1, 4}, a result-cache
// hit must be bit-identical — docIDs, titles, scores, tie-breaks — to
// re-executing the query on an engine that never caches, and the
// deterministic execution statistics (plan, result size, context size,
// pruning counters) must be the ones a fresh execution would report.
func TestResultCacheBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, sc := range cacheScorers {
		for _, pruning := range []bool{false, true} {
			// One uncached reference per configuration: a single engine over
			// the same documents (the sharded layer's existing bit-identity
			// contract makes it the ground truth for every shard count).
			refOpts := BuildOptions{Scorer: sc, Pruning: pruning}
			rb := NewBuilder()
			cacheDocs(rb)
			ref, err := rb.Build(refOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 4} {
				label := fmt.Sprintf("scorer=%s pruning=%v shards=%d", sc, pruning, shards)
				opts := refOpts
				opts.Cache = CacheOptions{ResultBytes: 1 << 20}
				b := NewBuilder()
				cacheDocs(b)
				se, err := b.BuildSharded(shards, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range shardedDemoQueries {
					want, _, err := ref.Search(q, 10)
					if err != nil {
						t.Fatal(err)
					}
					got1, st1, _, err := se.SearchDetailed(ctx, q, 10)
					if err != nil {
						t.Fatal(err)
					}
					if st1.ResultCacheHit {
						t.Fatalf("%s q=%q: first execution reported a cache hit", label, q)
					}
					got2, st2, per2, err := se.SearchDetailed(ctx, q, 10)
					if err != nil {
						t.Fatal(err)
					}
					if !st2.ResultCacheHit {
						t.Fatalf("%s q=%q: repeat query missed the result cache", label, q)
					}
					assertSameHits(t, label+" fresh vs reference", got1, want)
					assertSameHits(t, label+" cached vs reference", got2, want)
					if len(per2) != shards {
						t.Fatalf("%s q=%q: cached hit carried %d per-shard reports, want %d", label, q, len(per2), shards)
					}
					// The deterministic statistics must be the stored execution's,
					// not zeros or some other query's.
					if st2.Plan != st1.Plan || st2.UsedView != st1.UsedView ||
						st2.ResultSize != st1.ResultSize || st2.ContextSize != st1.ContextSize ||
						st2.PrunedDocs != st1.PrunedDocs || st2.PrunedContainers != st1.PrunedContainers {
						t.Fatalf("%s q=%q: cached stats %+v diverge from executed stats %+v", label, q, st2, st1)
					}
				}
				cs := se.ResultCacheStats()
				if cs.Hits == 0 || cs.Misses == 0 || cs.Stores == 0 {
					t.Fatalf("%s: implausible cache counters %+v", label, cs)
				}
			}
		}
	}
}

// TestResultCacheGenerationInvalidation: the tag protocol must
// invalidate exactly when an input generation moves — a shard swap
// (even to an identical engine) and a catalog swap must each force
// re-execution, and the re-executed result must again be correct and
// cacheable.
func TestResultCacheGenerationInvalidation(t *testing.T) {
	ctx := context.Background()
	opts := BuildOptions{Cache: CacheOptions{ResultBytes: 1 << 20}}
	b := NewBuilder()
	cacheDocs(b)
	se, err := b.BuildSharded(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	const q = "pancreas leukemia | digestive_system"
	want, _, _, err := se.SearchDetailed(ctx, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, _, _ := se.SearchDetailed(ctx, q, 10); !st.ResultCacheHit {
		t.Fatal("warm query missed")
	}

	// Shard swap to the SAME engine at the next generation: content is
	// unchanged, but the tag protocol cannot know that — it must miss,
	// re-execute, and produce the identical ranking.
	eng, gen := se.cluster.Engine(0)
	if _, _, err := se.cluster.Swap(0, eng, gen+1); err != nil {
		t.Fatal(err)
	}
	got, st, _, err := se.SearchDetailed(ctx, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResultCacheHit {
		t.Fatal("cache hit served across a shard generation swap")
	}
	assertSameHits(t, "post-swap", got, want)
	if _, st, _, _ := se.SearchDetailed(ctx, q, 10); !st.ResultCacheHit {
		t.Fatal("post-swap result was not re-cached")
	}

	// Catalog swap (views dropped on one shard): ranking is unchanged —
	// views are rank-neutral — but the plan an execution reports is not,
	// so a cached pre-swap entry must not be served.
	eng0, _ := se.cluster.Engine(0)
	eng0.SwapCatalog(nil)
	got, st, _, err = se.SearchDetailed(ctx, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResultCacheHit {
		t.Fatal("cache hit served across a catalog swap")
	}
	assertSameHits(t, "post-catalog-swap", got, want)
	if inv := se.ResultCacheStats().Invalidations; inv == 0 {
		t.Fatal("generation moves recorded no invalidations")
	}
}

// TestResultCacheLiveBitIdentical covers the live states: with a
// mutable segment in the view, hits must still be bit-identical to a
// fresh engine over the same documents, and ingestion (a document
// becoming visible) and compaction must each invalidate immediately.
func TestResultCacheLiveBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, sc := range cacheScorers {
		for _, pruning := range []bool{false, true} {
			label := fmt.Sprintf("scorer=%s pruning=%v", sc, pruning)
			opts := BuildOptions{Scorer: sc, Pruning: pruning, Cache: CacheOptions{ResultBytes: 1 << 20}}
			b := NewBuilder()
			cacheDocs(b)
			se, err := b.BuildSharded(2, opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := se.Save(dir); err != nil {
				t.Fatal(err)
			}
			live, err := OpenLive(dir, opts, IngestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()

			const q = "pancreas leukemia | digestive_system"
			reference := func(extra []Document) []Hit {
				rb := NewBuilder()
				cacheDocs(rb)
				for _, d := range extra {
					rb.Add(d)
				}
				refOpts := opts
				refOpts.Cache = CacheOptions{}
				ref, err := rb.Build(refOpts)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := ref.Search(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				return want
			}

			got, _, _, err := live.SearchDetailed(ctx, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			assertSameHits(t, label+" live fresh", got, reference(nil))
			got, st, _, err := live.SearchDetailed(ctx, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !st.ResultCacheHit {
				t.Fatalf("%s: repeat live query missed", label)
			}
			assertSameHits(t, label+" live cached", got, reference(nil))

			// A new document becomes visible (zero refresh interval: on Add):
			// the very next query must re-execute and rank the grown
			// collection exactly like a fresh build over it.
			doc := Document{
				Title:      "Pancreatitis after induction for leukemia",
				Body:       "pancreas leukemia pancreatitis induction",
				Predicates: []string{"digestive_system"},
			}
			if _, err := live.Add(doc); err != nil {
				t.Fatal(err)
			}
			want := reference([]Document{doc})
			got, st, _, err = live.SearchDetailed(ctx, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if st.ResultCacheHit {
				t.Fatalf("%s: cache hit served a pre-ingestion result", label)
			}
			assertSameHits(t, label+" post-add", got, want)
			if _, st, _, _ := live.SearchDetailed(ctx, q, 10); !st.ResultCacheHit {
				t.Fatalf("%s: post-add result was not re-cached", label)
			}

			// Compaction commits a new index generation: same documents, new
			// plan inputs — must invalidate, and must still rank identically.
			if err := live.Compact(); err != nil {
				t.Fatal(err)
			}
			got, st, _, err = live.SearchDetailed(ctx, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if st.ResultCacheHit {
				t.Fatalf("%s: cache hit served across a compaction", label)
			}
			assertSameHits(t, label+" post-compact", got, want)
		}
	}
}

// TestResultCacheInvalidationStorm hammers the cache with concurrent
// invalidation while queries are in flight: one goroutine ingests
// documents (each Add makes content visible immediately), another swaps
// catalogs on the serving engines, compactions run mid-storm, and
// searcher goroutines assert the one property the tag protocol
// guarantees — time never runs backwards. A searcher that has seen n
// matching documents may never again be served fewer, cached or not;
// a cache hit carrying a pre-swap (smaller) result is exactly the bug
// this would catch. Run under -race in CI.
func TestResultCacheInvalidationStorm(t *testing.T) {
	const (
		addDocs   = 90
		searchers = 4
	)
	opts := BuildOptions{Cache: CacheOptions{ResultBytes: 1 << 20}}
	b := NewBuilder()
	cacheDocs(b)
	se, err := b.BuildSharded(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := se.Save(dir); err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(dir, opts, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	const q = "stormterm"
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	// Ingest storm: every Add bumps the view sequence; two compactions
	// mid-stream move every shard to a new generation while queries run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < addDocs; i++ {
			_, err := live.Add(Document{
				Title:      fmt.Sprintf("storm doc %d", i),
				Body:       "stormterm leukemia",
				Predicates: []string{"neoplasms"},
			})
			if err != nil {
				t.Error(err)
				return
			}
			if i == addDocs/3 || i == 2*addDocs/3 {
				if err := live.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// Catalog storm: flap one serving engine's view catalog, which bumps
	// its catalog version on every swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			eng, _ := live.cluster.Engine(0)
			eng.SwapCatalog(nil)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seen := 0
			for !stop.Load() {
				hits, _, _, err := live.SearchDetailed(context.Background(), q, addDocs+10)
				if err != nil {
					t.Errorf("searcher %d: %v", s, err)
					return
				}
				if len(hits) < seen {
					t.Errorf("searcher %d: saw %d matches after having seen %d — a stale cached result was served", s, len(hits), seen)
					return
				}
				seen = len(hits)
			}
		}(s)
	}
	wg.Wait()

	// Final barrier: everything acknowledged must now be visible, from a
	// tag that matches the settled state.
	if err := live.Refresh(); err != nil {
		t.Fatal(err)
	}
	hits, _, _, err := live.SearchDetailed(context.Background(), q, addDocs+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != addDocs {
		t.Fatalf("%d matches after the storm settled, want %d", len(hits), addDocs)
	}
	cs := live.ResultCacheStats()
	if cs.Hits == 0 {
		t.Fatalf("storm produced no cache hits — the test exercised nothing: %+v", cs)
	}
}

// TestSingleFlightOneExecution: N concurrent identical queries must
// trigger exactly one backend execution — the admission gate counts
// them — with every other caller either coalescing onto the leader's
// flight or (if it arrives after the leader finished) hitting the cache,
// and every caller receiving the identical ranking.
func TestSingleFlightOneExecution(t *testing.T) {
	const callers = 16
	opts := BuildOptions{Cache: CacheOptions{ResultBytes: 1 << 20}}
	b := NewBuilder()
	cacheDocs(b)
	se, err := b.BuildSharded(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	const q = "leukemia lymphoma | neoplasms"

	var executions atomic.Int64
	launched := make(chan struct{})
	gate := func(ctx context.Context) (func(), error) {
		executions.Add(1)
		<-launched // hold the leader until every caller is in flight
		return func() {}, nil
	}

	var (
		wg      sync.WaitGroup
		started sync.WaitGroup
		mu      sync.Mutex
		results [][]Hit
		shared  int64
		cached  int64
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			hits, st, _, err := se.SearchGated(context.Background(), q, 10, gate)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			results = append(results, hits)
			if st.SingleFlightShared {
				shared++
			}
			if st.ResultCacheHit {
				cached++
			}
			mu.Unlock()
		}()
	}
	// Release the leader only after every caller goroutine is running and
	// has had time to reach Join — so followers genuinely coalesce on an
	// in-flight execution rather than hitting the finished entry.
	started.Wait()
	time.Sleep(100 * time.Millisecond)
	close(launched)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("%d backend executions for %d concurrent identical queries, want 1", n, callers)
	}
	if shared+cached != callers-1 {
		t.Fatalf("shared=%d cached=%d, want them to cover all %d non-leaders", shared, cached, callers-1)
	}
	if len(results) != callers {
		t.Fatalf("%d results", len(results))
	}
	for i := 1; i < len(results); i++ {
		assertSameHits(t, fmt.Sprintf("caller %d vs caller 0", i), results[i], results[0])
	}
	if se.ResultCacheStats().Coalesced == 0 {
		t.Fatal("no coalesced followers counted")
	}
}

// TestSingleFlightFailedLeaderNotShared: a leader rejected at the gate
// must not poison followers — they fall back to their own execution and
// still answer correctly.
func TestSingleFlightFailedLeaderNotShared(t *testing.T) {
	opts := BuildOptions{Cache: CacheOptions{ResultBytes: 1 << 20}}
	b := NewBuilder()
	cacheDocs(b)
	se, err := b.BuildSharded(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	const q = "surgery outcomes | digestive_system"
	pq, err := query.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := se.searchParsed(context.Background(), pq, 10, "")
	if err != nil {
		t.Fatal(err)
	}

	rejected := fmt.Errorf("admission queue full")
	var calls atomic.Int64
	gate := func(ctx context.Context) (func(), error) {
		if calls.Add(1) == 1 {
			return nil, rejected // the leader is shed at the gate
		}
		return func() {}, nil
	}
	if _, _, _, err := se.SearchGated(context.Background(), q, 10, gate); err != rejected {
		t.Fatalf("leader error = %v, want the gate's rejection", err)
	}
	// The flight must be retired: the next caller leads (and executes).
	hits, st, _, err := se.SearchGated(context.Background(), q, 10, gate)
	if err != nil {
		t.Fatal(err)
	}
	if st.SingleFlightShared || st.ResultCacheHit {
		t.Fatalf("follower inherited a failed leader's outcome: %+v", st)
	}
	assertSameHits(t, "after failed leader", hits, want)
}
