package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestResultCacheLookupStoreTag(t *testing.T) {
	c := NewResultCache(1 << 20)
	if _, ok := c.Lookup("k", "g1"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Store("k", "g1", "v1", 100)
	v, ok := c.Lookup("k", "g1")
	if !ok || v.(string) != "v1" {
		t.Fatalf("lookup = %v, %v", v, ok)
	}
	// Same key, moved generation: must miss, drop the entry, count an
	// invalidation — and keep missing even on the old tag (the entry is
	// gone, not shadowed).
	if _, ok := c.Lookup("k", "g2"); ok {
		t.Fatal("stale-tagged entry served")
	}
	if _, ok := c.Lookup("k", "g1"); ok {
		t.Fatal("invalidated entry resurrected")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("stats %+v, want 1 invalidation, 1 hit, 3 misses", st)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("population %d entries / %d bytes after invalidation", st.Entries, st.Bytes)
	}
}

func TestResultCacheByteBudgetEviction(t *testing.T) {
	c := NewResultCache(8 * 100) // 100 bytes per shard
	for i := 0; i < 200; i++ {
		c.Store(fmt.Sprintf("k%d", i), "g", i, 40)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("over-budget stores never evicted")
	}
	if st.Bytes > st.Budget {
		t.Fatalf("resident %d bytes over budget %d", st.Bytes, st.Budget)
	}
	// Overwrite accounting: replacing a value adjusts bytes, not doubles.
	c2 := NewResultCache(1 << 20)
	c2.Store("k", "g", "a", 100)
	c2.Store("k", "g", "b", 60)
	if st := c2.Stats(); st.Bytes != 60 || st.Entries != 1 {
		t.Fatalf("after overwrite: %d bytes, %d entries", st.Bytes, st.Entries)
	}
}

// TestResultCacheClockSecondChance: an entry that has hit survives one
// eviction pressure wave that removes never-hit entries around it.
func TestResultCacheClockSecondChance(t *testing.T) {
	c := NewResultCache(8 * 100)
	// All keys land in known shards; use one shard's worth of pressure.
	c.Store("hot", "g", 1, 30)
	if _, ok := c.Lookup("hot", "g"); !ok {
		t.Fatal("miss on fresh entry")
	}
	s := c.shard("hot")
	// Pressure the same shard with cold entries until eviction runs.
	for i := 0; len(s.entries) > 0 && i < 500; i++ {
		k := fmt.Sprintf("cold%d", i)
		if c.shard(k) != s {
			continue
		}
		c.Store(k, "g", i, 30)
		if _, stillThere := s.entries["hot"]; !stillThere && c.Stats().Evictions < 2 {
			t.Fatal("hot entry evicted before never-hit cold entries")
		}
	}
}

func TestSingleFlightLeaderShares(t *testing.T) {
	c := NewResultCache(1 << 20)
	f, leader := c.Join("q")
	if !leader {
		t.Fatal("first join not leader")
	}
	if _, again := c.Join("q"); again {
		t.Fatal("second join also leader")
	}
	var wg sync.WaitGroup
	results := make([]any, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fl, lead := c.Join("q")
			if lead {
				t.Errorf("follower %d became leader", i)
				c.Finish("q", fl, nil, false)
				return
			}
			v, ok, err := fl.Wait(context.Background())
			if err != nil || !ok {
				t.Errorf("follower %d: ok=%v err=%v", i, ok, err)
			}
			results[i] = v
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	c.Finish("q", f, "answer", true)
	wg.Wait()
	for i, v := range results {
		if v != "answer" {
			t.Fatalf("follower %d got %v", i, v)
		}
	}
	// The flight is retired: the next join leads again.
	if _, lead := c.Join("q"); !lead {
		t.Fatal("flight not retired after Finish")
	}
}

func TestSingleFlightLeaderFailureNotShared(t *testing.T) {
	c := NewResultCache(1 << 20)
	f, _ := c.Join("q")
	done := make(chan bool)
	go func() {
		fl, _ := c.Join("q")
		_, ok, err := fl.Wait(context.Background())
		done <- ok || err != nil
	}()
	time.Sleep(5 * time.Millisecond)
	c.Finish("q", f, nil, false) // leader failed / result not cacheable
	if shared := <-done; shared {
		t.Fatal("follower treated a failed leader's outcome as shareable")
	}
}

func TestSingleFlightFollowerOwnDeadline(t *testing.T) {
	c := NewResultCache(1 << 20)
	c.Join("q") // leader never finishes
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	fl, lead := c.Join("q")
	if lead {
		t.Fatal("unexpected leadership")
	}
	start := time.Now()
	_, _, err := fl.Wait(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("follower waited far past its own deadline")
	}
}

func TestResultCacheConcurrent(t *testing.T) {
	c := NewResultCache(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", i%64)
				tag := fmt.Sprintf("g%d", i%3)
				if v, ok := c.Lookup(k, tag); ok && v == nil {
					t.Error("hit with nil value")
				}
				c.Store(k, tag, i, 64)
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > st.Budget {
		t.Fatalf("resident %d over budget %d", st.Bytes, st.Budget)
	}
}

func TestResultCacheNil(t *testing.T) {
	var c *ResultCache
	if _, ok := c.Lookup("k", "g"); ok {
		t.Fatal("nil cache hit")
	}
	c.Store("k", "g", 1, 1)
	c.NoteCoalesced()
	if st := c.Stats(); st != (ResultCacheStats{}) {
		t.Fatalf("nil stats %+v", st)
	}
	if NewResultCache(0) != nil {
		t.Fatal("zero budget must disable the cache")
	}
}
