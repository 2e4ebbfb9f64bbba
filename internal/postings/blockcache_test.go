package postings

import (
	"sync/atomic"
	"testing"
)

// fillSlots fabricates n charged slots holding decoded-looking payloads,
// as materialize would publish them before calling insert.
func fillSlots(n int) []atomic.Pointer[chunkPayload] {
	slots := make([]atomic.Pointer[chunkPayload], n)
	for i := range slots {
		p := &chunkPayload{keys: []uint16{uint16(i)}, cached: true}
		slots[i].Store(p)
	}
	return slots
}

// touch simulates the materialize fast path on a resident slot: set the
// reference bit and count a hit.
func touch(c *BlockCache, slot *atomic.Pointer[chunkPayload]) bool {
	p := slot.Load()
	if p == nil {
		return false
	}
	if p.accessed.Load() == 0 {
		p.accessed.Store(1)
	}
	c.noteHit()
	return true
}

// TestBlockCacheScanResistance is the point of the S3-FIFO policy: a
// long one-shot scan must not displace the blocks hot queries keep
// re-touching.
func TestBlockCacheScanResistance(t *testing.T) {
	c := NewBlockCache(10) // ten 1-byte entries
	hot := fillSlots(5)
	for i := range hot {
		c.insert(&hot[i], 1)
	}
	// The hot set is re-touched before any pressure arrives.
	for i := range hot {
		if !touch(c, &hot[i]) {
			t.Fatalf("hot block %d not resident before scan", i)
		}
	}
	// A 200-block one-shot scan, never re-touched.
	scan := fillSlots(200)
	for i := range scan {
		c.insert(&scan[i], 1)
	}
	for i := range hot {
		if hot[i].Load() == nil {
			t.Fatalf("scan evicted hot block %d (accessed, should have been promoted)", i)
		}
	}
	resident := 0
	for i := range scan {
		if scan[i].Load() != nil {
			resident++
		}
	}
	if resident > 10 {
		t.Fatalf("%d scan blocks resident, budget holds at most 10", resident)
	}
	if c.Stats().Promotions < 5 {
		t.Fatalf("promotions %d, want >= 5 (the hot set graduating to main)", c.Stats().Promotions)
	}
	if st := c.Stats(); st.Used > st.Budget {
		t.Fatalf("used %d over budget %d", st.Used, st.Budget)
	}
}

// TestBlockCacheGhostPromotion: a block whose reuse interval exceeds the
// probationary queue is evicted unreferenced, but its second decode must
// land in the main queue via the ghost list — the 2Q behavior that keeps
// a steadily re-decoded block from churning in probation forever.
func TestBlockCacheGhostPromotion(t *testing.T) {
	c := NewBlockCache(10)
	victim := fillSlots(1)
	c.insert(&victim[0], 1)
	// Push it out of the small queue without ever touching it.
	filler := fillSlots(20)
	for i := range filler {
		c.insert(&filler[i], 1)
	}
	if victim[0].Load() != nil {
		t.Fatal("untouched victim survived 20 insertions in a 10-byte cache")
	}
	// Re-decode: the ghost entry must route it to the main queue.
	victim[0].Store(&chunkPayload{keys: []uint16{7}, cached: true})
	c.insert(&victim[0], 1)
	st := c.Stats()
	if st.GhostHits != 1 {
		t.Fatalf("ghost hits %d, want 1", st.GhostHits)
	}
	// Another untouched scan: the ghost-promoted block now outlives it.
	scan := fillSlots(40)
	for i := range scan {
		c.insert(&scan[i], 1)
	}
	if victim[0].Load() == nil {
		t.Fatal("ghost-promoted block evicted by an untouched scan")
	}
}

// TestBlockCacheSteadyStateAllocation is the regression test for the
// queue leak: the old plain-slice FIFO re-sliced itself forward on every
// eviction, growing its backing array with the cumulative insertion
// count. The ring deques must keep capacity proportional to the peak
// resident population under unbounded churn.
func TestBlockCacheSteadyStateAllocation(t *testing.T) {
	c := NewBlockCache(8)
	slots := fillSlots(64)
	for i := 0; i < 100_000; i++ {
		s := &slots[i%len(slots)]
		if s.Load() == nil {
			s.Store(&chunkPayload{keys: []uint16{uint16(i)}, cached: true})
		}
		c.insert(s, 1)
	}
	c.mu.Lock()
	smallCap, mainCap, ghostCap := len(c.small.buf), len(c.main.buf), len(c.ghost.ring)
	resident := c.small.count + c.main.count
	c.mu.Unlock()
	if resident > 8 {
		t.Fatalf("%d entries resident, budget holds at most 8", resident)
	}
	// Generous bound: a leak puts these in the tens of thousands.
	if smallCap > 256 || mainCap > 256 || ghostCap > 1024 {
		t.Fatalf("ring capacities small=%d main=%d ghost=%d grew with churn (leak)", smallCap, mainCap, ghostCap)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("churn produced no evictions")
	}
}

// TestBlockCacheCounters pins the counter semantics: hits only on
// resident re-touches, misses ≡ insertions, eviction refunds the budget.
func TestBlockCacheCounters(t *testing.T) {
	c := NewBlockCache(100)
	slots := fillSlots(3)
	for i := range slots {
		c.insert(&slots[i], 10)
	}
	for i := 0; i < 7; i++ {
		touch(c, &slots[i%3])
	}
	st := c.Stats()
	if st.Hits != 7 || st.Misses != 3 || st.Insertions != 3 {
		t.Fatalf("hits=%d misses=%d insertions=%d, want 7/3/3", st.Hits, st.Misses, st.Insertions)
	}
	if st.Used != 30 {
		t.Fatalf("used %d, want 30", st.Used)
	}
	var nilCache *BlockCache
	if s := nilCache.Stats(); s != (BlockCacheStats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}
	nilCache.noteHit() // must not panic
}

// TestBlockCacheOversizedEntry: a single block larger than the whole
// budget is simply not retained, and the accounting returns to zero.
func TestBlockCacheOversizedEntry(t *testing.T) {
	c := NewBlockCache(10)
	slots := fillSlots(1)
	c.insert(&slots[0], 100)
	if slots[0].Load() != nil {
		t.Fatal("over-budget block retained")
	}
	if used := c.Stats().Used; used != 0 {
		t.Fatalf("used %d after evicting the only entry", used)
	}
}
