package core

import (
	"context"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// ResultCache memoizes final, fully-merged query results at the serving
// layer. It stores opaque values (the public layer's hits + stats
// bundle) under a string key — normalized query, context, k, engine
// configuration — paired with a *tag*: a string encoding of every input
// generation the result was computed from (per-shard serving
// generation, per-engine catalog version, live-view sequence number).
// A lookup only serves an entry whose tag equals the tag of the current
// serving state; because every tag component is monotonic, equality
// proves no input changed between store and lookup, which is what makes
// a hit provably bit-identical to re-execution. A stale-tagged entry is
// dropped on sight rather than waiting for byte-pressure eviction.
//
// The cache is sharded (FNV-1a over the key) so concurrent lookups in
// different keys never contend on one lock, and byte-budgeted: each
// store charges a caller-estimated size, and a CLOCK sweep (FIFO with
// one second chance for entries that have hit) keeps each shard inside
// its slice of the budget — scan-resistant enough for a result cache
// without LRU bookkeeping on the hit path.
//
// ResultCache also hosts the single-flight table (Join/Finish/Wait):
// concurrent identical queries coalesce onto one in-flight execution,
// with followers waiting under their own contexts.
type ResultCache struct {
	shards []resultShard
	mask   uint32

	hits          atomic.Int64
	misses        atomic.Int64
	stores        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	coalesced     atomic.Int64

	fmu     sync.Mutex
	flights map[string]*Flight
}

type resultShard struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*resultEntry
	// ring holds keys in insertion order for the CLOCK sweep. A key may
	// linger after its entry was invalidated; the sweep skips such
	// tombstones.
	ring  []string
	head  int
	count int
}

type resultEntry struct {
	tag      string
	val      any
	bytes    int64
	accessed bool
}

// ResultCacheStats is a counter snapshot for telemetry surfaces. The
// JSON tags are the wire format cmd/csserve's /statsz uses (the public
// package re-exports this type as an alias, so there is no shadow copy).
type ResultCacheStats struct {
	// Entries and Bytes describe the resident population; Budget is the
	// configured byte bound.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Budget  int64 `json:"budget"`
	// Hits and Misses count lookups; Stores counts insertions and
	// overwrites.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Stores int64 `json:"stores"`
	// Evictions counts byte-pressure removals; Invalidations counts
	// entries dropped because an input generation moved.
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// Coalesced counts followers served by another query's execution.
	Coalesced int64 `json:"coalesced"`
}

// NewResultCache returns a cache bounded to roughly budget bytes of
// stored results (nil when budget <= 0, meaning caching disabled).
func NewResultCache(budget int64) *ResultCache {
	if budget <= 0 {
		return nil
	}
	const n = 8 // power of two; modest — contention is per-key, not per-shard-count
	c := &ResultCache{
		shards:  make([]resultShard, n),
		mask:    uint32(n - 1),
		flights: make(map[string]*Flight),
	}
	per := budget / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].budget = per
		c.shards[i].entries = make(map[string]*resultEntry)
	}
	return c
}

func (c *ResultCache) shard(key string) *resultShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()&c.mask]
}

// Lookup returns the value stored under key if its tag matches the
// caller's view of the current serving state. A tag mismatch means some
// input generation moved since the store: the entry can never be served
// again (tags are built from monotonic counters), so it is dropped now
// and counted as an invalidation.
func (c *ResultCache) Lookup(key, tag string) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	if e.tag != tag {
		delete(s.entries, key)
		s.used -= e.bytes
		s.mu.Unlock()
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	e.accessed = true
	v := e.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Store inserts (or replaces) the value under key with the given tag
// and size estimate, then sweeps the shard back inside its budget. A
// value larger than the whole shard budget is simply not retained.
func (c *ResultCache) Store(key, tag string, val any, bytes int64) {
	if c == nil {
		return
	}
	if bytes < 1 {
		bytes = 1
	}
	s := c.shard(key)
	s.mu.Lock()
	if e := s.entries[key]; e != nil {
		s.used += bytes - e.bytes
		e.tag, e.val, e.bytes, e.accessed = tag, val, bytes, false
	} else {
		s.entries[key] = &resultEntry{tag: tag, val: val, bytes: bytes}
		s.used += bytes
		s.pushKey(key)
	}
	c.stores.Add(1)
	// CLOCK sweep: pop from the head; an entry that has hit since it was
	// queued gets one more lap, everything else leaves. Tombstoned keys
	// (invalidated entries) are skipped for free. The scan is bounded to
	// one full lap plus the reinsertions it can cause.
	scans := s.count + 2
	for s.used > s.budget && s.count > 0 && scans > 0 {
		scans--
		k := s.popKey()
		e := s.entries[k]
		if e == nil {
			continue // tombstone
		}
		if e.accessed && scans > 0 {
			e.accessed = false
			s.pushKey(k)
			continue
		}
		delete(s.entries, k)
		s.used -= e.bytes
		c.evictions.Add(1)
	}
	s.mu.Unlock()
}

func (s *resultShard) pushKey(k string) {
	if s.count == len(s.ring) {
		n := len(s.ring) * 2
		if n == 0 {
			n = 16
		}
		ring := make([]string, n)
		for i := 0; i < s.count; i++ {
			ring[i] = s.ring[(s.head+i)%len(s.ring)]
		}
		s.ring, s.head = ring, 0
	}
	s.ring[(s.head+s.count)%len(s.ring)] = k
	s.count++
}

func (s *resultShard) popKey() string {
	k := s.ring[s.head]
	s.ring[s.head] = ""
	s.head = (s.head + 1) % len(s.ring)
	s.count--
	return k
}

// NoteCoalesced counts one follower served by a leader's execution.
func (c *ResultCache) NoteCoalesced() {
	if c != nil {
		c.coalesced.Add(1)
	}
}

// Stats snapshots the cache's population and counters.
func (c *ResultCache) Stats() ResultCacheStats {
	if c == nil {
		return ResultCacheStats{}
	}
	st := ResultCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Stores:        c.stores.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Coalesced:     c.coalesced.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.entries)
		st.Bytes += s.used
		st.Budget += s.budget
		s.mu.Unlock()
	}
	return st
}

// Flight is one in-flight execution concurrent identical queries
// coalesce onto. The leader executes and publishes through Finish;
// followers Wait under their own contexts.
type Flight struct {
	done chan struct{}
	val  any
	ok   bool
}

// Join returns the flight for key and whether the caller is its leader.
// The leader MUST call Finish exactly once — on every path, including
// panics and errors — or followers joined after it would wait until
// their own deadlines for nothing.
func (c *ResultCache) Join(key string) (*Flight, bool) {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	if f := c.flights[key]; f != nil {
		return f, false
	}
	f := &Flight{done: make(chan struct{})}
	c.flights[key] = f
	return f, true
}

// Finish publishes the leader's outcome and retires the flight: val is
// shared with every waiting follower when shareable is true (a clean,
// cacheable result); shareable false — an error, degraded or partial
// result, or a mid-execution generation change — tells followers to
// execute for themselves. New arrivals after Finish start a new flight.
func (c *ResultCache) Finish(key string, f *Flight, val any, shareable bool) {
	c.fmu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	c.fmu.Unlock()
	f.val, f.ok = val, shareable
	close(f.done)
}

// Wait blocks until the flight's leader finishes or ctx ends. ok
// reports whether the leader's value is shareable; err is non-nil only
// for the follower's own context expiring.
func (f *Flight) Wait(ctx context.Context) (val any, ok bool, err error) {
	select {
	case <-f.done:
		return f.val, f.ok, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}
