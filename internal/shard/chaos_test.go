package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"csrank/internal/core"
	"csrank/internal/query"
)

// chaosCluster builds an nShards-shard cluster plus the per-shard
// engines, so tests can compare degraded answers against a fresh
// scatter-gather over only the healthy slices.
func chaosCluster(t *testing.T, rng *rand.Rand, nShards int) (*Cluster, []core.Slice, []query.Query) {
	t.Helper()
	docs, meshTerms, words := randomDocs(rng, 240, 8, 8)
	parts, globals, err := Split(docs, nShards)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.Engine, nShards)
	slices := make([]core.Slice, nShards)
	for i := range parts {
		ix := buildIndex(t, parts[i], 16)
		engines[i] = core.New(ix, nil, core.Options{})
		slices[i] = core.Slice{Eng: engines[i], Globals: globals[i]}
	}
	cluster, err := NewCluster(engines, globals)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]query.Query, 6)
	for i := range queries {
		queries[i] = randomQuery(rng, meshTerms, words)
	}
	return cluster, slices, queries
}

// settleGoroutines waits for the goroutine count to drop back to at
// most base, tolerating runtime background noise with a deadline.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosSweep is the robustness acceptance test: with 1 of 4 shards
// misbehaving (panic, corrupt block, or stall past the shard timeout),
// every query still answers — no crash — flagged degraded with the
// fault attributed to the right shard and kind, and the hit list is
// bit-identical to a fresh scatter-gather over only the three healthy
// slices. No goroutines may leak across the sweep.
func TestChaosSweep(t *testing.T) {
	const nShards = 4
	rng := rand.New(rand.NewSource(91))
	cluster, slices, queries := chaosCluster(t, rng, nShards)
	cluster.SetPolicy(Policy{
		MinShards:    1,
		ShardTimeout: 50 * time.Millisecond,
		// High threshold: this test exercises degraded answers, not
		// breaker trips (TestChaosBreakerLifecycle covers those), so
		// the sweep must not shed the faulty shard mid-sweep.
		Breaker: BreakerConfig{Threshold: 1 << 20},
	})

	base := runtime.NumGoroutine()
	faults := []struct {
		name string
		f    Fault
		kind string
	}{
		{"panic", Fault{Panic: true}, core.FailKindPanic},
		{"corrupt", Fault{Corrupt: true}, core.FailKindCorruption},
		{"timeout", Fault{Delay: 2 * time.Second}, core.FailKindTimeout},
	}
	for _, fc := range faults {
		for target := 0; target < nShards; target++ {
			cluster.DisarmFaults() // faults accumulate per shard; one at a time
			if err := cluster.ArmFault(target, fc.f); err != nil {
				t.Fatal(err)
			}
			// The healthy remainder, in shard order — what a fresh
			// engine over only the surviving shards would serve.
			var healthy []core.Slice
			for i, s := range slices {
				if i != target {
					healthy = append(healthy, s)
				}
			}
			for _, q := range queries {
				hits, sum, err := cluster.Search(context.Background(), q, 10)
				if err != nil {
					t.Fatalf("%s/shard %d: query failed instead of degrading: %v", fc.name, target, err)
				}
				if !sum.Agg.Degraded {
					t.Fatalf("%s/shard %d: answer not flagged degraded", fc.name, target)
				}
				if len(sum.Failed) != 1 || sum.Failed[0].Shard != target || sum.Failed[0].Kind != fc.kind {
					t.Fatalf("%s/shard %d: failure attribution %+v", fc.name, target, sum.Failed)
				}
				want, _, _, err := core.SearchSlicesPartial(context.Background(), healthy, q, 10, core.SliceOptions{MinSlices: len(healthy)})
				if err != nil {
					t.Fatal(err)
				}
				if len(hits) != len(want) {
					t.Fatalf("%s/shard %d: %d hits, healthy-only engine has %d", fc.name, target, len(hits), len(want))
				}
				for i := range want {
					if hits[i].Global != want[i].Global || hits[i].Score != want[i].Score {
						t.Fatalf("%s/shard %d rank %d: (%d, %v), healthy-only engine has (%d, %v)",
							fc.name, target, i, hits[i].Global, hits[i].Score, want[i].Global, want[i].Score)
					}
				}
			}
		}
		cluster.DisarmFaults()
	}
	// Disarmed: back to full, non-degraded answers.
	for _, q := range queries {
		_, sum, err := cluster.Search(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Agg.Degraded || len(sum.Failed) != 0 {
			t.Fatalf("still degraded after disarm: %+v", sum.Failed)
		}
	}
	settleGoroutines(t, base)
}

// TestChaosBreakerLifecycle drives one shard's breaker through the full
// closed → open → half-open → closed cycle with real queries: repeated
// injected panics trip it, tripped means the shard is shed up front
// (kind "breaker-open", no panic cost paid), and after the backoff a
// healthy probe closes it again.
func TestChaosBreakerLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cluster, _, queries := chaosCluster(t, rng, 4)
	cluster.SetPolicy(Policy{
		MinShards: 1,
		Breaker:   BreakerConfig{Threshold: 3, Backoff: 30 * time.Millisecond, MaxBackoff: 100 * time.Millisecond},
	})
	const target = 2
	if err := cluster.ArmFault(target, Fault{Panic: true}); err != nil {
		t.Fatal(err)
	}

	// Threshold consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if h := cluster.Health(); h.Shards[target].State != BreakerClosed {
			t.Fatalf("query %d: breaker %v before threshold", i, h.Shards[target].State)
		}
		_, sum, err := cluster.Search(context.Background(), queries[0], 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Failed) != 1 || sum.Failed[0].Kind != core.FailKindPanic {
			t.Fatalf("query %d: failures %+v", i, sum.Failed)
		}
	}
	h := cluster.Health()
	if h.Shards[target].State != BreakerOpen || h.Shards[target].Trips != 1 {
		t.Fatalf("after threshold failures: %+v", h.Shards[target])
	}
	if h.Available != 3 {
		t.Fatalf("available %d, want 3", h.Available)
	}

	// While open, the shard is shed before the fan-out: the failure kind
	// is breaker-open, not panic.
	_, sum, err := cluster.Search(context.Background(), queries[1], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failed) != 1 || sum.Failed[0].Shard != target || sum.Failed[0].Kind != KindBreakerOpen {
		t.Fatalf("open-breaker query: failures %+v", sum.Failed)
	}
	if !sum.Agg.Degraded || !strings.Contains(sum.Agg.DegradedReason, "unavailable") {
		t.Fatalf("open-breaker query not degraded: %+v", sum.Agg)
	}

	// Shard recovers; past the backoff the next query is the half-open
	// probe, its success closes the breaker, and answers are whole again.
	cluster.DisarmFaults()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := cluster.Health()
		if h.Shards[target].State == BreakerHalfOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never reached half-open: %+v", h.Shards[target])
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, sum, err = cluster.Search(context.Background(), queries[2], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failed) != 0 || sum.Agg.Degraded {
		t.Fatalf("probe query after recovery: %+v", sum.Failed)
	}
	h = cluster.Health()
	if h.Shards[target].State != BreakerClosed || h.Shards[target].Recoveries != 1 {
		t.Fatalf("after successful probe: %+v", h.Shards[target])
	}
	if h.Available != 4 {
		t.Fatalf("available %d, want 4", h.Available)
	}
}

// TestChaosFailClosed: with MinShards = NumShards, any shard loss fails
// the whole query with ErrTooFewSlices instead of serving a partial
// answer — and an open breaker sheds the query before the fan-out.
func TestChaosFailClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cluster, _, queries := chaosCluster(t, rng, 4)
	cluster.SetPolicy(Policy{
		MinShards: 4,
		Breaker:   BreakerConfig{Threshold: 1, Backoff: time.Minute, MaxBackoff: time.Minute},
	})
	if err := cluster.ArmFault(1, Fault{Panic: true}); err != nil {
		t.Fatal(err)
	}
	_, _, err := cluster.Search(context.Background(), queries[0], 10)
	if !errors.Is(err, core.ErrTooFewSlices) {
		t.Fatalf("err %v, want ErrTooFewSlices", err)
	}
	// One failure tripped the breaker (threshold 1): now the query is
	// refused at admission, before any shard does work.
	if cluster.CanServe() {
		t.Fatal("CanServe true with a tripped breaker under MinShards=NumShards")
	}
	_, _, err = cluster.Search(context.Background(), queries[0], 10)
	if !errors.Is(err, core.ErrTooFewSlices) {
		t.Fatalf("admission err %v, want ErrTooFewSlices", err)
	}
}

// TestStatsPhasePanicNoLeak is the regression test for the
// stats-phase-panic goroutine leak: a shard that dies during the
// statistics phase of a contextual query must not strand the other
// shards' workers or wedge the cluster — the survivors answer, and
// repeated queries keep working.
func TestStatsPhasePanicNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cluster, _, _ := chaosCluster(t, rng, 4)
	cluster.SetPolicy(Policy{MinShards: 1, Breaker: BreakerConfig{Threshold: 1 << 20}})
	// A contextual query exercises the two-phase path: stats fan-out,
	// merge, then scoring fan-out.
	q := query.Query{Keywords: []string{"w01"}, Context: []string{"m00"}}
	if !q.IsContextual() {
		t.Fatal("test query must be contextual")
	}
	base := runtime.NumGoroutine()
	if err := cluster.ArmFault(3, Fault{Panic: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_, sum, err := cluster.Search(context.Background(), q, 10)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(sum.Failed) != 1 || sum.Failed[0].Shard != 3 || sum.Failed[0].Kind != core.FailKindPanic {
			t.Fatalf("query %d: failures %+v", i, sum.Failed)
		}
	}
	if !cluster.CanServe() {
		t.Fatal("cluster stopped serving after stats-phase panics")
	}
	cluster.DisarmFaults()
	if _, sum, err := cluster.Search(context.Background(), q, 10); err != nil || sum.Agg.Degraded {
		t.Fatalf("after disarm: err=%v degraded=%v", err, sum.Agg.Degraded)
	}
	settleGoroutines(t, base)
}

// TestChaosConcurrentStorm hammers a faulty cluster from many
// goroutines while faults are armed, re-armed, and disarmed underneath
// it — the invariant is simply no crash, no deadlock, and every
// successful answer internally consistent (sorted, attributed).
func TestChaosConcurrentStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cluster, _, queries := chaosCluster(t, rng, 4)
	cluster.SetPolicy(Policy{
		MinShards:    1,
		ShardTimeout: 20 * time.Millisecond,
		Breaker:      BreakerConfig{Threshold: 5, Backoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
	})
	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	errc := make(chan error, 16)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			defer func() { errc <- nil }()
			lrng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[lrng.Intn(len(queries))]
				hits, sum, err := cluster.Search(context.Background(), q, 10)
				if err != nil && !errors.Is(err, core.ErrTooFewSlices) {
					errc <- fmt.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				for r := 1; r < len(hits); r++ {
					a, b := hits[r-1], hits[r]
					if a.Score < b.Score || (a.Score == b.Score && a.Global > b.Global) {
						errc <- fmt.Errorf("goroutine %d query %d: unsorted hits at rank %d", g, i, r)
						return
					}
				}
				if len(sum.Failed) > 0 && !sum.Agg.Degraded && err == nil {
					errc <- fmt.Errorf("goroutine %d query %d: failures without degraded flag", g, i)
					return
				}
			}
		}()
	}
	fseq := []Fault{{Panic: true}, {Corrupt: true}, {Delay: 100 * time.Millisecond}, {}}
	for round := 0; round < 12; round++ {
		f := fseq[round%len(fseq)]
		if f.active() {
			if err := cluster.ArmFault(round%4, f); err != nil {
				t.Fatal(err)
			}
		} else {
			cluster.DisarmFaults()
		}
		time.Sleep(15 * time.Millisecond)
	}
	cluster.DisarmFaults()
	close(stop)
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	settleGoroutines(t, base)
}

// TestBadQueryDoesNotTripBreakers: a query no engine can analyze fails
// identically on every shard. That is a fact about the query, so the
// cluster fails it with core.ErrBadQuery, attributes no shard loss, and
// leaves every breaker closed — a valid query afterwards is served whole.
func TestBadQueryDoesNotTripBreakers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cluster, _, queries := chaosCluster(t, rng, 4)
	cluster.SetPolicy(Policy{MinShards: 1, Breaker: BreakerConfig{Threshold: 3, Backoff: time.Minute, MaxBackoff: time.Minute}})
	bad := query.Query{Keywords: []string{" "}, Context: []string{"m00"}}
	for i := 0; i < 5; i++ {
		_, sum, err := cluster.Search(context.Background(), bad, 10)
		if !errors.Is(err, core.ErrBadQuery) {
			t.Fatalf("query %d: err %v, want ErrBadQuery", i, err)
		}
		if len(sum.Failed) != 0 {
			t.Fatalf("query %d: bad query blamed shards: %+v", i, sum.Failed)
		}
	}
	h := cluster.Health()
	if h.Available != 4 {
		t.Fatalf("available %d after bad queries, want 4", h.Available)
	}
	for _, s := range h.Shards {
		if s.State != BreakerClosed || s.ConsecutiveFailures != 0 {
			t.Fatalf("shard %d breaker after bad queries: %+v", s.Shard, s)
		}
	}
	if _, sum, err := cluster.Search(context.Background(), queries[0], 10); err != nil || sum.Agg.Degraded {
		t.Fatalf("valid query after bad ones: err=%v degraded=%v", err, sum.Agg.Degraded)
	}
}

// TestExpiredCallerDeadlineDegrades: a caller deadline that has already
// expired degrades every shard in place, as it degrades one engine — the
// cluster answers with err == nil and a Degraded (empty) result, and no
// breaker records a failure.
func TestExpiredCallerDeadlineDegrades(t *testing.T) {
	for _, n := range []int{1, 4} {
		rng := rand.New(rand.NewSource(31))
		cluster, _, queries := chaosCluster(t, rng, n)
		cluster.SetPolicy(Policy{MinShards: n, Breaker: BreakerConfig{Threshold: 1, Backoff: time.Minute, MaxBackoff: time.Minute}})
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		for _, q := range queries {
			_, sum, err := cluster.Search(ctx, q, 10)
			if err != nil {
				t.Fatalf("%d shards, %v: expired deadline failed the query: %v", n, q, err)
			}
			if !sum.Agg.Degraded || len(sum.Failed) != 0 {
				t.Fatalf("%d shards, %v: degraded=%v failures %+v", n, q, sum.Agg.Degraded, sum.Failed)
			}
		}
		cancel()
		for _, s := range cluster.Health().Shards {
			if s.State != BreakerClosed || s.ConsecutiveFailures != 0 || s.Trips != 0 {
				t.Fatalf("%d shards: shard %d breaker after expired deadlines: %+v", n, s.Shard, s)
			}
		}
	}
}
