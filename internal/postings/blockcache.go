package postings

import (
	"sync"
	"sync/atomic"
)

// BlockCache bounds the heap held by decoded mapped blocks. Only blocks
// that required real decoding are charged — packed docIDs and uvarint TF
// columns — while zero-copy views of the mapping weigh nothing and are
// memoized permanently in their list's slot. Eviction clears the
// decoded block's slot, so the next touch re-decodes it; readers that
// obtained the payload pointer before the eviction keep using it safely
// (the garbage collector keeps it alive for them).
//
// The policy is S3-FIFO-style scan resistance rather than plain FIFO or
// LRU: a new block enters a small probationary queue (~10% of the
// budget); blocks evicted from it unreferenced go to a *ghost* list
// (identity only, no payload) and free their bytes, while blocks that
// were re-touched — or whose identity is still in the ghost list when
// they are decoded again — graduate to the main queue. Main-queue
// eviction gives each re-touched block one more lap before letting it
// go. One cold broad query therefore streams through the probationary
// queue without displacing the blocks hot queries keep re-touching,
// and a hit still costs only one atomic load plus one cheap
// reference-bit write on the query path — no list manipulation.
//
// Both queues are fixed-ring deques that recycle their backing arrays:
// the earlier plain-slice FIFO re-sliced itself forward on every
// eviction (c.fifo = c.fifo[1:]), so under steady churn the backing
// array grew with the total insertion count — a leak proportional to
// uptime, not to the budget.
type BlockCache struct {
	mu          sync.Mutex
	budget      int64
	used        int64
	smallTarget int64 // byte budget of the probationary queue
	smallUsed   int64
	small       blockRing
	main        blockRing
	ghost       ghostList

	hits       atomic.Int64
	insertions atomic.Int64
	evictions  atomic.Int64
	promotions atomic.Int64
	ghostHits  atomic.Int64
}

type blockCacheEntry struct {
	slot   *atomic.Pointer[chunkPayload]
	weight int64
}

// BlockCacheStats is one cache's counter snapshot. Hits and Misses
// describe only cache-managed (decoded, charged) blocks: zero-copy
// aliases are memoized outside the budget and touch no counter.
// The JSON tags are the wire format cmd/csserve's /statsz uses (the
// public package re-exports this type as an alias).
type BlockCacheStats struct {
	Budget     int64 `json:"budget"`
	Used       int64 `json:"used"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Insertions int64 `json:"insertions"`
	Evictions  int64 `json:"evictions"`
	// Promotions counts probationary blocks that graduated to the main
	// queue on reuse; GhostHits counts re-decoded blocks recognized by
	// the ghost list (the S3-FIFO signals).
	Promotions int64 `json:"promotions"`
	GhostHits  int64 `json:"ghost_hits"`
}

// NewBlockCache returns a cache that keeps at most budget bytes of
// decoded block payloads. A nil *BlockCache is valid and means
// "memoize everything, never evict".
func NewBlockCache(budget int64) *BlockCache {
	if budget <= 0 {
		return nil
	}
	c := &BlockCache{budget: budget, smallTarget: budget / 10}
	c.ghost.init()
	return c
}

// blockRing is a FIFO deque over a circular buffer. The buffer grows
// geometrically when full and is otherwise recycled, so its capacity
// tracks the peak resident population — bounded by budget/min-weight —
// never the cumulative insertion count.
type blockRing struct {
	buf   []blockCacheEntry
	head  int
	count int
}

func (r *blockRing) push(e blockCacheEntry) {
	if r.count == len(r.buf) {
		n := len(r.buf) * 2
		if n == 0 {
			n = 16
		}
		buf := make([]blockCacheEntry, n)
		for i := 0; i < r.count; i++ {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.count)%len(r.buf)] = e
	r.count++
}

func (r *blockRing) pop() blockCacheEntry {
	e := r.buf[r.head]
	r.buf[r.head] = blockCacheEntry{}
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return e
}

// ghostList remembers the identity of blocks recently evicted from the
// probationary queue, so a block with a reuse interval longer than the
// small queue still reaches the main queue on its second decode. A slot
// may be ghosted again after its membership was consumed; the sequence
// number lets a stale ring occupant (superseded or promoted) be skipped
// on pop-out without scanning.
type ghostList struct {
	ring  []ghostEntry
	head  int
	count int
	seqs  map[*atomic.Pointer[chunkPayload]]uint64
	next  uint64
	limit int // target population; grows with the resident high-water mark
}

type ghostEntry struct {
	slot *atomic.Pointer[chunkPayload]
	seq  uint64
}

func (g *ghostList) init() {
	g.seqs = make(map[*atomic.Pointer[chunkPayload]]uint64)
	g.limit = 64
}

func (g *ghostList) add(slot *atomic.Pointer[chunkPayload]) {
	for g.count >= g.limit && g.count > 0 {
		g.popOldest()
	}
	if g.count == len(g.ring) {
		n := len(g.ring) * 2
		if n == 0 {
			n = 16
		}
		ring := make([]ghostEntry, n)
		for i := 0; i < g.count; i++ {
			ring[i] = g.ring[(g.head+i)%len(g.ring)]
		}
		g.ring, g.head = ring, 0
	}
	g.next++
	g.ring[(g.head+g.count)%len(g.ring)] = ghostEntry{slot: slot, seq: g.next}
	g.count++
	g.seqs[slot] = g.next
}

func (g *ghostList) popOldest() {
	e := g.ring[g.head]
	g.ring[g.head] = ghostEntry{}
	g.head = (g.head + 1) % len(g.ring)
	g.count--
	if s, ok := g.seqs[e.slot]; ok && s == e.seq {
		delete(g.seqs, e.slot)
	}
}

// take consumes the slot's ghost membership, reporting whether it held
// one. The ring occupant is left to age out as a stale entry.
func (g *ghostList) take(slot *atomic.Pointer[chunkPayload]) bool {
	if _, ok := g.seqs[slot]; !ok {
		return false
	}
	delete(g.seqs, slot)
	return true
}

// noteHit records a fast-path slot hit on a charged block and is called
// locklessly from materialize.
func (c *BlockCache) noteHit() {
	if c != nil {
		c.hits.Add(1)
	}
}

// insert charges a freshly decoded block and evicts until the budget
// holds again. A first-time block enters the probationary queue; a
// block whose identity is still ghosted re-enters the main queue
// directly (its reuse interval proved longer than the small queue).
//
// Invariant: a slot has at most one live queue entry. insert is only
// reached after a CAS from nil won the slot, the slot is set to nil
// only by eviction (which retires the entry), and promotion moves an
// entry rather than copying it — so an entry's slot is non-nil for
// exactly as long as the entry is queued, and the weight accounting in
// evictLocked is exact.
func (c *BlockCache) insert(slot *atomic.Pointer[chunkPayload], weight int64) {
	c.insertions.Add(1)
	c.mu.Lock()
	e := blockCacheEntry{slot: slot, weight: weight}
	if c.ghost.take(slot) {
		c.ghostHits.Add(1)
		c.main.push(e)
	} else {
		c.small.push(e)
		c.smallUsed += weight
	}
	c.used += weight
	c.evictLocked()
	if hw := c.small.count + c.main.count; hw > c.ghost.limit {
		c.ghost.limit = hw
	}
	c.mu.Unlock()
}

// evictLocked restores the byte budget: the probationary queue sheds
// first while over its own target, re-touched blocks graduating to the
// main queue instead of leaving; the main queue gives a re-touched
// block one extra lap. The scan is bounded so concurrent reference-bit
// setters cannot spin the evictor: past one full lap over the resident
// population, eviction stops honoring the bits.
func (c *BlockCache) evictLocked() {
	scans := c.small.count + c.main.count + 2
	for c.used > c.budget && (c.small.count > 0 || c.main.count > 0) {
		scans--
		fromSmall := c.small.count > 0 && (c.smallUsed > c.smallTarget || c.main.count == 0)
		if fromSmall {
			e := c.small.pop()
			c.smallUsed -= e.weight
			if scans > 0 {
				if p := e.slot.Load(); p != nil && p.accessed.Load() != 0 {
					p.accessed.Store(0)
					c.main.push(e)
					c.promotions.Add(1)
					continue
				}
			}
			if p := e.slot.Swap(nil); p != nil {
				c.used -= e.weight
			}
			c.ghost.add(e.slot)
			c.evictions.Add(1)
			continue
		}
		e := c.main.pop()
		if scans > 0 {
			if p := e.slot.Load(); p != nil && p.accessed.Load() != 0 {
				p.accessed.Store(0)
				c.main.push(e)
				continue
			}
		}
		if p := e.slot.Swap(nil); p != nil {
			c.used -= e.weight
		}
		c.evictions.Add(1)
	}
}

// Stats snapshots every counter (zeros for a nil cache).
func (c *BlockCache) Stats() BlockCacheStats {
	if c == nil {
		return BlockCacheStats{}
	}
	c.mu.Lock()
	used := c.used
	c.mu.Unlock()
	ins := c.insertions.Load()
	return BlockCacheStats{
		Budget:     c.budget,
		Used:       used,
		Hits:       c.hits.Load(),
		Misses:     ins,
		Insertions: ins,
		Evictions:  c.evictions.Load(),
		Promotions: c.promotions.Load(),
		GhostHits:  c.ghostHits.Load(),
	}
}
