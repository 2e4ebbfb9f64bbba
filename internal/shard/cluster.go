package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csrank/internal/core"
	"csrank/internal/query"
)

// ErrStaleGeneration marks Swap/SwapExtend rejections of a generation
// that does not advance the shard's current one. Generations are the
// audit trail of what each shard served; accepting a stale or duplicate
// gen would silently regress Generations() and confuse swap-under-load
// accounting, so non-monotonic swaps are refused with this typed error.
var ErrStaleGeneration = errors.New("shard: swap generation not greater than the shard's current generation")

// Cluster is a document-partitioned set of engines serving one logical
// collection. Each shard sits behind a core.Serving, so catalog/index
// generation rollover (recovery, background rebuilds, ingestion
// compaction) swaps one shard at a time with zero downtime — in-flight
// queries finish on the engine snapshot they already fanned out to.
//
// The local→global docID maps live behind one atomic pointer so
// compaction can grow a shard: SwapExtend publishes extended maps
// *before* the grown engine, and maps only ever grow by appending
// globals larger than every existing entry, so any interleaving a
// concurrent query observes — old engine with new maps (the extension
// is an unused suffix) or matched pairs — maps every result it can
// produce correctly. Plain Swap keeps the PR 7 contract: the
// replacement must hold the same partition (same count, same local
// numbering).
type Cluster struct {
	shards []*core.Serving
	state  atomic.Pointer[topology]
	mu     sync.Mutex // serializes Swap/SwapExtend

	polMu    sync.Mutex // guards policy and breakers
	policy   Policy
	breakers []*Breaker

	chaos chaosRegistry

	// catErrs holds, per shard, why Open served it without its
	// views.gob (nil when the catalog opened or there is none).
	catErrs []error
	closed  atomic.Bool
}

// Policy is the cluster's failure policy: how much of the collection may
// be missing before a partial answer is worse than no answer, and how
// long one shard may stall the fan-out.
type Policy struct {
	// MinShards is the fewest healthy shards for which a partial answer
	// is still served; with fewer the query fails with
	// core.ErrTooFewSlices (fail-closed). ≤ 0 means 1 — answer as long
	// as any shard survives. NumShards means fail-fast on any loss.
	MinShards int
	// ShardTimeout bounds each shard's work per phase; an expired shard
	// is dropped from the query and the survivors answer. 0 disables the
	// per-shard timeout (the engine-level deadline still degrades
	// in-shard).
	ShardTimeout time.Duration
	// Breaker tunes the per-shard circuit breakers (zero value =
	// defaults).
	Breaker BreakerConfig
}

// ShardError attributes the loss of one shard in a degraded execution.
type ShardError struct {
	// Shard is the cluster shard index.
	Shard int `json:"shard"`
	// Kind is the failure class: "corruption", "panic", "timeout",
	// "error", or "breaker-open" (shed up front, never attempted).
	Kind string `json:"kind"`
	// Err is the underlying error text.
	Err string `json:"error"`
}

// KindBreakerOpen marks a shard shed by its open circuit breaker before
// the fan-out, in addition to core's failure kinds.
const KindBreakerOpen = "breaker-open"

// SetPolicy installs a failure policy, recreating the per-shard circuit
// breakers with pol.Breaker's settings (breaker state is reset). Install
// policy before serving; swapping it under load loses breaker history
// but is otherwise safe — in-flight queries finish against the breakers
// they admitted through.
func (c *Cluster) SetPolicy(pol Policy) {
	breakers := make([]*Breaker, len(c.shards))
	for i := range breakers {
		breakers[i] = NewBreaker(pol.Breaker)
	}
	c.polMu.Lock()
	defer c.polMu.Unlock()
	c.policy = pol
	c.breakers = breakers
}

// Policy returns the current failure policy.
func (c *Cluster) Policy() Policy {
	c.polMu.Lock()
	defer c.polMu.Unlock()
	return c.policy
}

func (c *Cluster) breakerSnapshot() []*Breaker {
	c.polMu.Lock()
	defer c.polMu.Unlock()
	return c.breakers
}

// topology is the immutable docID-mapping snapshot queries read once
// per request.
type topology struct {
	globals [][]uint32
	total   int
}

// Summary reports what one scatter-gather execution did.
type Summary struct {
	// Agg is the cluster-level aggregation (core.MergeStats) of every
	// shard's statistics-phase and scoring-phase reports.
	Agg core.ExecStats
	// PerShard holds each slice's merged (stats + scoring) report: the
	// shards in order, then any extra slice.
	PerShard []core.ExecStats
	// Generations are the serving generations the query ran against,
	// one per shard, captured as one snapshot per shard at fan-out (set
	// by Search; SearchSlices callers hold their own snapshot).
	Generations []uint64
	// Failed attributes every slice that did not contribute to the
	// answer — shed by its breaker or lost to a panic, timeout, or
	// corruption (an index ≥ NumShards names an extra slice). Non-empty
	// exactly when the answer is partial (and Agg.Degraded is then set).
	Failed []ShardError
	// Elapsed is the cluster-level wall clock: fan-out, both phases,
	// merge.
	Elapsed time.Duration
}

// NewCluster assembles a cluster from per-shard engines and their
// local→global docID maps (as produced by Split or GlobalMaps). It
// validates the partition invariants the rank-safe merge rests on:
// every map strictly increasing (local order = global order), maps
// pairwise disjoint, and each map's length equal to its engine's
// document count. Shard generations start at 0.
func NewCluster(engines []*core.Engine, globals [][]uint32) (*Cluster, error) {
	return newCluster(engines, globals, 0)
}

// newCluster is NewCluster with every shard serving generation gen.
func newCluster(engines []*core.Engine, globals [][]uint32, gen uint64) (*Cluster, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("shard: cluster needs at least one engine")
	}
	if len(engines) != len(globals) {
		return nil, fmt.Errorf("shard: %d engines but %d docID maps", len(engines), len(globals))
	}
	total := 0
	for i, g := range globals {
		if n := engines[i].Index().NumDocs(); n != len(g) {
			return nil, fmt.Errorf("shard %d: engine holds %d documents but the docID map has %d", i, n, len(g))
		}
		for j := 1; j < len(g); j++ {
			if g[j] <= g[j-1] {
				return nil, fmt.Errorf("shard %d: docID map not strictly increasing at local %d", i, j)
			}
		}
		total += len(g)
	}
	// Disjointness across shards: the concatenation sorted must be
	// strictly increasing. O(total log total) once at construction.
	all := make([]uint32, 0, total)
	for _, g := range globals {
		all = append(all, g...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			return nil, fmt.Errorf("shard: global docID %d assigned to two shards", all[i])
		}
	}
	c := &Cluster{}
	c.state.Store(&topology{globals: globals, total: total})
	for _, e := range engines {
		c.shards = append(c.shards, core.NewServing(e, gen))
	}
	c.SetPolicy(Policy{})
	return c, nil
}

// CatalogErr returns why shard i's views.gob did not open when the
// cluster was opened, or nil.
func (c *Cluster) CatalogErr(i int) error {
	if i < len(c.catErrs) {
		return c.catErrs[i]
	}
	return nil
}

// Close releases the reference the cluster holds on every shard's
// current engine, so each closes — unmapping its index and catalog —
// once no query holds it. A cluster that serves without references
// (Search, Slices) must not be queried after Close. Calls after the
// first do nothing.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	for _, s := range c.shards {
		eng, _ := s.Snapshot()
		eng.Release()
	}
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// NumDocs returns the logical collection size.
func (c *Cluster) NumDocs() int { return c.state.Load().total }

// Engine returns shard i's current engine and generation.
func (c *Cluster) Engine(i int) (*core.Engine, uint64) { return c.shards[i].Snapshot() }

// Generations returns each shard's current serving generation.
func (c *Cluster) Generations() []uint64 {
	gens := make([]uint64, len(c.shards))
	for i, s := range c.shards {
		gens[i] = s.Generation()
	}
	return gens
}

// Swap atomically replaces shard i's engine, returning the previous
// engine and generation. The replacement must hold exactly the same
// document partition — same count and local numbering — which a rebuilt
// or recovered index of the shard does by construction; the count is
// validated here, the numbering is the builder's insertion-order
// contract. gen must be greater than the shard's current generation
// (ErrStaleGeneration otherwise): generations are an audit trail, and a
// stale or duplicate gen would silently rewind it. In-flight queries
// finish on the engine they already hold.
func (c *Cluster) Swap(i int, eng *core.Engine, gen uint64) (*core.Engine, uint64, error) {
	if i < 0 || i >= len(c.shards) {
		return nil, 0, fmt.Errorf("shard: no shard %d in a %d-shard cluster", i, len(c.shards))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := eng.Index().NumDocs(); n != len(c.state.Load().globals[i]) {
		return nil, 0, fmt.Errorf("shard %d: replacement engine holds %d documents, want %d", i, n, len(c.state.Load().globals[i]))
	}
	if cur := c.shards[i].Generation(); gen <= cur {
		return nil, 0, fmt.Errorf("shard %d: %w (have %d, got %d)", i, ErrStaleGeneration, cur, gen)
	}
	old, oldGen := c.shards[i].Swap(eng, gen)
	return old, oldGen, nil
}

// SwapExtend atomically replaces shard i's engine with one holding a
// *grown* partition — the old documents in their old local order plus
// new documents appended — and publishes the matching extended docID
// map. globals must extend the shard's current map as a strict prefix,
// appended entries must keep the map strictly increasing and belong to
// no other shard, and len(globals) must equal the new engine's document
// count; gen must advance the shard's generation.
// The map is published before the engine, so a concurrent query sees
// either the old engine (the map extension is an unused suffix) or the
// new engine with the map it needs — never a grown engine with a short
// map.
func (c *Cluster) SwapExtend(i int, eng *core.Engine, globals []uint32, gen uint64) (*core.Engine, uint64, error) {
	if i < 0 || i >= len(c.shards) {
		return nil, 0, fmt.Errorf("shard: no shard %d in a %d-shard cluster", i, len(c.shards))
	}
	if n := eng.Index().NumDocs(); n != len(globals) {
		return nil, 0, fmt.Errorf("shard %d: replacement engine holds %d documents but the docID map has %d", i, n, len(globals))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	top := c.state.Load()
	old := top.globals[i]
	if len(globals) < len(old) {
		return nil, 0, fmt.Errorf("shard %d: extended docID map shrinks %d → %d", i, len(old), len(globals))
	}
	for j, g := range old {
		if globals[j] != g {
			return nil, 0, fmt.Errorf("shard %d: extended docID map rewrites local %d (%d → %d)", i, j, g, globals[j])
		}
	}
	// Appended entries: strictly increasing above the shard's own last
	// entry (local order = global order) and absent from every other
	// shard's map (disjointness). The membership check is a binary
	// search per appended entry — compaction extends every shard of the
	// same collection in turn, so a shard's new globals routinely fall
	// below another shard's maximum and a cluster-wide floor would be
	// wrong.
	for j := len(old); j < len(globals); j++ {
		if j > 0 && globals[j] <= globals[j-1] {
			return nil, 0, fmt.Errorf("shard %d: extended docID map not strictly increasing at local %d", i, j)
		}
		for s, g := range top.globals {
			if s == i {
				continue
			}
			at := sort.Search(len(g), func(x int) bool { return g[x] >= globals[j] })
			if at < len(g) && g[at] == globals[j] {
				return nil, 0, fmt.Errorf("shard %d: appended global %d already lives on shard %d", i, globals[j], s)
			}
		}
	}
	if cur := c.shards[i].Generation(); gen <= cur {
		return nil, 0, fmt.Errorf("shard %d: %w (have %d, got %d)", i, ErrStaleGeneration, cur, gen)
	}

	next := &topology{globals: make([][]uint32, len(top.globals)), total: top.total + len(globals) - len(old)}
	copy(next.globals, top.globals)
	next.globals[i] = globals
	c.state.Store(next) // map first, engine second — see the ordering contract above
	oldEng, oldGen := c.shards[i].Swap(eng, gen)
	return oldEng, oldGen, nil
}

// Slices snapshots the cluster as a consistent []core.Slice — one
// engine snapshot and docID map per shard — plus the generations the
// snapshot serves. Engines are snapshotted before the topology is
// loaded; with SwapExtend's publish order (map before engine) that
// guarantees every engine's map is at least as long as the engine
// needs.
func (c *Cluster) Slices() ([]core.Slice, []uint64) {
	n := len(c.shards)
	slices := make([]core.Slice, n)
	gens := make([]uint64, n)
	for i, s := range c.shards {
		slices[i].Eng, gens[i] = s.Snapshot()
	}
	top := c.state.Load()
	for i := range slices {
		slices[i].Globals = top.globals[i]
	}
	return slices, gens
}

// Search evaluates q over the whole cluster and returns the global top
// k (everything when k ≤ 0): SearchSlices over one engine snapshot per
// shard.
func (c *Cluster) Search(ctx context.Context, q query.Query, k int) ([]core.SliceHit, Summary, error) {
	slices, gens := c.Slices()
	hits, sum, err := c.SearchSlices(ctx, slices, q, k, "")
	sum.Generations = gens
	return hits, sum, err
}

// SearchSlices is the one admitted scatter-gather every query runs
// through. slices[:NumShards] must be a Slices snapshot of this cluster;
// any further slices are extras — the live view's mutable segment —
// that rank with the shards but have no breaker: they are always
// admitted and their outcome feeds nothing. Hits resolve against the
// caller's slices (SliceHit.Slice indexes them). With every slice
// healthy the answer is bit-identical — scores, order, tie-breaks — to
// a single engine holding all documents: core.SearchSlicesPartial's
// two-phase scatter-gather (partial statistics summed exactly into the
// union's statistics, then per-slice scoring under the merged
// statistics, then a rank-safe merge in the global docID space).
//
// Shards are failure domains, not a shared fate: a shard that panics,
// reads a corrupt block, or exceeds Policy.ShardTimeout is dropped from
// the query, and — as long as at least Policy.MinShards shards (plus
// every extra) survive — the rest answer alone, bit-identically to a
// cluster built over exactly the surviving slices, with Summary.Failed
// attributing each loss and Agg.Degraded set. Shards whose circuit
// breaker is open are shed before the fan-out at zero cost; breakers
// observe every attempted shard's outcome. Fewer survivors than the
// floor fail the query with core.ErrTooFewSlices (fail-closed), caller
// cancellation fails it with ctx's error, and a query no engine can
// analyze fails with core.ErrBadQuery; neither of the last two counts
// against any breaker. A deadline expiry — the caller's or the engines'
// own — degrades in-shard rather than dropping the shard. plan forces
// every shard's statistics plan ("" lets each choose).
func (c *Cluster) SearchSlices(ctx context.Context, slices []core.Slice, q query.Query, k int, plan core.Plan) ([]core.SliceHit, Summary, error) {
	start := time.Now()
	n := len(slices)
	pol := c.Policy()
	breakers := c.breakerSnapshot()
	// The policy floor counts shards; extras are required on top of it, so
	// a healthy mutable segment can never stand in for a lost shard.
	minSlices := c.minShards(pol) + n - len(breakers)

	var sum Summary
	// Admission: shed shards whose breaker is open before paying for any
	// fan-out, and fail closed up front when too few remain.
	now := time.Now()
	include := make([]int, 0, n) // index into slices per admitted slice
	for i := range slices {
		if i >= len(breakers) || breakers[i].Allow(now) {
			include = append(include, i)
		} else {
			sum.Failed = append(sum.Failed, ShardError{Shard: i, Kind: KindBreakerOpen, Err: "circuit breaker open: shard is shedding"})
		}
	}
	if len(include) < minSlices {
		sum.Elapsed = time.Since(start)
		return nil, sum, fmt.Errorf("%w: %d of %d shards admitted, policy requires %d", core.ErrTooFewSlices, len(include), n, minSlices)
	}

	sub := make([]core.Slice, len(include))
	var hooks []core.SliceHook
	armed := c.chaos.armed()
	if armed {
		hooks = make([]core.SliceHook, len(include))
	}
	for j, i := range include {
		sub[j] = slices[i]
		if armed {
			hooks[j] = c.chaos.hook(i)
		}
	}

	hits, per, failures, err := core.SearchSlicesPartial(ctx, sub, q, k, core.SliceOptions{
		MinSlices: minSlices,
		Timeout:   pol.ShardTimeout,
		Hooks:     hooks,
		Plan:      plan,
	})

	// Feed the breakers: every admitted shard records its outcome. A
	// caller cancellation or a bad query attributes no failures (neither
	// says anything about shard health), so all record success — which
	// also releases any half-open probe this query consumed.
	lost := make(map[int]bool, len(failures))
	for _, f := range failures {
		lost[f.Slice] = true
		sum.Failed = append(sum.Failed, ShardError{Shard: include[f.Slice], Kind: f.Kind, Err: f.Err.Error()})
	}
	now = time.Now()
	for j, i := range include {
		if i < len(breakers) {
			breakers[i].Record(!lost[j], now)
		}
	}
	if err != nil {
		sum.Elapsed = time.Since(start)
		return nil, sum, err
	}

	// Map admitted-space hits and reports back to the caller's slice
	// indices.
	for i := range hits {
		hits[i].Slice = include[hits[i].Slice]
	}
	sum.PerShard = make([]core.ExecStats, n)
	for j, i := range include {
		sum.PerShard[i] = per[j]
	}
	sum.Agg = core.MergeStats(per...)
	if len(sum.Failed) > 0 {
		sum.Agg.Degrade(fmt.Sprintf("%d of %d shards unavailable: partial results over %d shards", len(sum.Failed), n, len(include)-len(lost)))
	}
	sum.Elapsed = time.Since(start)
	return hits, sum, nil
}

// minShards resolves the policy floor: MinShards clamped into
// [1, NumShards].
func (c *Cluster) minShards(pol Policy) int {
	min := pol.MinShards
	if min < 1 {
		min = 1
	}
	if min > len(c.shards) {
		min = len(c.shards)
	}
	return min
}

// ShardHealth is one shard's view in a Health report.
type ShardHealth struct {
	Shard               int
	Generation          uint64
	State               BreakerState
	ConsecutiveFailures int
	Trips               int64
	Recoveries          int64
	RetryIn             time.Duration
}

// Health reports each shard's breaker state and the number of shards
// admission would currently accept queries for.
type Health struct {
	NumShards int
	Available int
	Shards    []ShardHealth
}

// Health snapshots the cluster's serving health without mutating any
// breaker.
func (c *Cluster) Health() Health {
	breakers := c.breakerSnapshot()
	now := time.Now()
	h := Health{NumShards: len(c.shards), Shards: make([]ShardHealth, len(c.shards))}
	for i, b := range breakers {
		s := b.Snapshot(now)
		h.Shards[i] = ShardHealth{
			Shard:               i,
			Generation:          c.shards[i].Generation(),
			State:               s.State,
			ConsecutiveFailures: s.ConsecutiveFailures,
			Trips:               s.Trips,
			Recoveries:          s.Recoveries,
			RetryIn:             s.RetryIn,
		}
		if b.Available(now) {
			h.Available++
		}
	}
	return h
}

// CanServe reports whether admission would currently accept a query:
// at least max(1, Policy.MinShards) shards have an available breaker.
// Cheaper than Health (no per-shard snapshots built), for the serving
// hot path's early shed.
func (c *Cluster) CanServe() bool {
	breakers := c.breakerSnapshot()
	min := c.minShards(c.Policy())
	now := time.Now()
	avail := 0
	for _, b := range breakers {
		if b.Available(now) {
			avail++
			if avail >= min {
				return true
			}
		}
	}
	return false
}

// Quarantined returns the total number of corrupt blocks quarantined
// across every shard's current engine (always 0 for heap-resident
// indexes, which decode strictly at load).
func (c *Cluster) Quarantined() int64 {
	var total int64
	for _, s := range c.shards {
		eng, _ := s.Snapshot()
		total += eng.Index().Quarantined()
	}
	return total
}
