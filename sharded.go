package csrank

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"csrank/internal/core"
	"csrank/internal/index"
	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/segment"
	"csrank/internal/selection"
	"csrank/internal/shard"
	"csrank/internal/views"
)

// ShardedEngine answers context-sensitive queries over a
// document-partitioned cluster of engines — one shard for Build. Every
// query fans out to all shards concurrently in two phases — partial
// statistics, then scoring under the merged global statistics — and the
// merged ranking is bit-identical to one shard holding the whole
// collection: sharding changes latency and capacity, never scores, order
// or tie-breaks. Each shard sits behind a generation-tracked serving slot,
// so index rollover swaps one shard at a time without downtime.
type ShardedEngine struct {
	cluster    *shard.Cluster
	selectTime time.Duration
	// live is the ingester behind an OpenLive engine; when set, searches
	// route through its view (shards + mutable segment) and Add accepts
	// documents.
	live *segment.Ingester
	// rcache is the serving-layer result cache plus single-flight table
	// (nil when CacheOptions disables it); cacheFP is the configuration
	// fingerprint folded into every key.
	rcache  *core.ResultCache
	cacheFP string
}

// configure installs the serving-layer subset of opts: the cluster's
// failure policy and the result cache per opts.Cache. Every construction
// path (BuildSharded, OpenSharded, OpenLive) calls it, so no path serves
// without the policy it was asked for and the cache's configuration
// fingerprint always matches the engines actually serving.
func (e *ShardedEngine) configure(opts BuildOptions) {
	e.cluster.SetPolicy(shard.Policy{MinShards: opts.MinShards, ShardTimeout: opts.ShardTimeout})
	e.rcache = core.NewResultCache(opts.Cache.ResultBytes)
	e.cacheFP = opts.cacheFingerprint()
}

// current is the one accessor for what a query issued now runs on: the
// disjoint slices — the live view's shards plus mutable segment, or a
// snapshot of the static cluster — the monotonic stamp of their
// content (the live view's sequence, which covers both ingestion
// visibility and compaction generations, or the shards' serving
// generations), and the release the caller defers. A live view is
// acquired, so a compaction cannot close the slices' engines until
// release runs; a static cluster closes its engines only on Close.
func (e *ShardedEngine) current() ([]core.Slice, []uint64, func()) {
	if e.live != nil {
		if v := e.live.Acquire(); v != nil {
			return v.Slices, []uint64{v.Seq}, v.Release
		}
		// Closed: the cluster's engines, closed too, as a closed
		// read-only engine serves them.
	}
	slices, gens := e.cluster.Slices()
	return slices, gens, func() {}
}

// cacheKey is the result-cache key for a parsed query: configuration
// fingerprint, k, the keywords in query order (keyword order is
// score-neutral but plan-visible, so reordered queries get their own
// Stats), and the normalized (sorted, deduplicated) context.
func (e *ShardedEngine) cacheKey(pq query.Query, k int) string {
	var b strings.Builder
	b.WriteString(e.cacheFP)
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(k))
	for _, w := range pq.Keywords {
		b.WriteByte(0)
		b.WriteString(w)
	}
	b.WriteByte(1)
	for _, m := range pq.NormalizedContext() {
		b.WriteByte(0)
		b.WriteString(m)
	}
	return b.String()
}

// cacheTag encodes every input generation a result depends on. All
// components are monotonic counters, so two equal tags prove that no
// shard swapped, no catalog changed, and no live document became
// visible in between — which is what makes serving a tagged entry
// bit-identical to re-executing the query.
func (e *ShardedEngine) cacheTag() string {
	slices, stamp, release := e.current()
	defer release()
	var b strings.Builder
	for _, g := range stamp {
		b.WriteString(strconv.FormatUint(g, 10))
		b.WriteByte(';')
	}
	for _, sl := range slices {
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(sl.Eng.CatalogVersion(), 10))
	}
	return b.String()
}

// cachedResult is the opaque value a ResultCache entry holds: the final
// merged ranking plus the aggregate and per-shard statistics it was
// computed with. The stored slices belong to the cache; every consumer
// gets copies via copyOut.
type cachedResult struct {
	hits []Hit
	agg  Stats
	per  []Stats
}

// sizeBytes estimates the entry's resident size for the byte budget.
func (r *cachedResult) sizeBytes() int64 {
	n := int64(128)
	for i := range r.hits {
		n += 48 + int64(len(r.hits[i].Title))
	}
	n += int64(1+len(r.per)) * 256
	return n
}

// copyOut returns mutation-safe copies of the slices; the aggregate
// Stats is a value (ShardErrors is always empty on cacheable results,
// so the shallow copy shares nothing).
func (r *cachedResult) copyOut() ([]Hit, Stats, []Stats) {
	hits := make([]Hit, len(r.hits))
	copy(hits, r.hits)
	per := make([]Stats, len(r.per))
	copy(per, r.per)
	return hits, r.agg, per
}

// BuildSharded indexes the queued documents hash-partitioned over the
// given number of shards, running view selection independently per
// shard (T_C scales with the shard's size, so the fractional coverage
// guarantee is preserved), and returns a ready ShardedEngine. Build is
// BuildSharded(1, opts).
func (b *Builder) BuildSharded(shards int, opts BuildOptions) (*ShardedEngine, error) {
	scorer, err := opts.Scorer.build()
	if err != nil {
		return nil, err
	}
	frac := opts.ContextThresholdFraction
	if frac == 0 {
		frac = 0.01
	}
	tv := opts.ViewSizeLimit
	if tv == 0 {
		tv = 4096
	}
	parts, globals, err := shard.Split(b.docs, shards)
	if err != nil {
		return nil, err
	}
	var selTime time.Duration
	engines := make([]*core.Engine, shards)
	for i := range parts {
		ix, err := index.BuildFrom(schema(), opts.SegmentSize, parts[i])
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		var cat *views.Catalog
		if !opts.DisableViews {
			tc := int64(frac * float64(ix.NumDocs()))
			if tc < 1 {
				tc = 1
			}
			t0 := time.Now()
			m, err := selection.Select(ix, selection.Config{TC: tc, TV: tv})
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			cat = m.Catalog
			selTime += time.Since(t0)
		}
		engines[i] = core.New(ix, cat, opts.coreOptions(scorer))
	}
	cluster, err := shard.NewCluster(engines, globals)
	if err != nil {
		return nil, err
	}
	se := &ShardedEngine{cluster: cluster, selectTime: selTime}
	se.configure(opts)
	return se, nil
}

// Save persists the cluster under dir (which must exist): a manifest and
// one shard-%03d engine directory per shard, its index in paged format v5.
// On a live engine it saves the shards of the view it acquires, held
// for the whole write so no compaction closes them meanwhile; documents
// still in the mutable segment are not saved (Compact first to include
// them).
func (e *ShardedEngine) Save(dir string) error {
	if e.live == nil {
		return e.cluster.Save(dir)
	}
	v := e.live.Acquire()
	if v == nil {
		return fmt.Errorf("csrank: save of a closed engine")
	}
	defer v.Release()
	return shard.SaveSlices(dir, v.Slices[:e.cluster.NumShards()])
}

// OpenSharded loads a data directory written by Save or csbuild,
// honoring the runtime options (Scorer, CostBasedPlanning, Timeout,
// StatsBudget, Pruning) on every shard. A directory in the single-engine
// layout older builds wrote (index.gob and views.gob, no cluster.json)
// opens as one shard; Save then rewrites it in the cluster layout.
func OpenSharded(dir string, opts BuildOptions) (*ShardedEngine, error) {
	sc, err := opts.Scorer.build()
	if err != nil {
		return nil, err
	}
	cluster, err := shard.Open(dir, opts.coreOptions(sc))
	if err != nil {
		return nil, err
	}
	se := &ShardedEngine{cluster: cluster}
	se.configure(opts)
	return se, nil
}

// Search parses and evaluates q ("w1 w2 | m1 m2") over all shards,
// returning the global top k with cluster-aggregated statistics.
func (e *ShardedEngine) Search(q string, k int) ([]Hit, Stats, error) {
	return e.SearchCtx(context.Background(), q, k)
}

// SearchCtx is Search under a caller-supplied context: cancelling ctx
// aborts the fan-out promptly, and a deadline degrades every shard in
// place to flagged partial (or empty) results instead of failing.
func (e *ShardedEngine) SearchCtx(ctx context.Context, q string, k int) ([]Hit, Stats, error) {
	hits, agg, _, err := e.SearchGated(ctx, q, k, nil)
	return hits, agg, err
}

// SearchDetailed is SearchCtx that additionally returns each shard's
// own statistics report (index = shard), for serving telemetry.
func (e *ShardedEngine) SearchDetailed(ctx context.Context, q string, k int) ([]Hit, Stats, []Stats, error) {
	return e.SearchGated(ctx, q, k, nil)
}

// SearchGated is SearchDetailed with serving-layer caching, single-flight
// coalescing, and an admission gate. The gate — nil means admit freely —
// is invoked only when the query actually executes against the shards;
// result-cache hits and coalesced followers never pay for an admission
// slot. When the gate returns an error the query is rejected with it;
// otherwise its release func is called when execution finishes.
//
// A cache hit sets Stats.ResultCacheHit and is bit-identical to
// re-execution (modulo Elapsed, which reports the cache-hit latency): the
// entry's generation tag matching the current serving state proves no
// input changed since it was computed. A coalesced follower sets
// Stats.SingleFlightShared. Degraded, partial, or errored executions are
// never cached and never shared.
func (e *ShardedEngine) SearchGated(ctx context.Context, q string, k int, gate func(context.Context) (func(), error)) ([]Hit, Stats, []Stats, error) {
	pq, err := query.Parse(q)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	if e.rcache == nil {
		if gate != nil {
			release, err := gate(ctx)
			if err != nil {
				return nil, Stats{}, nil, err
			}
			defer release()
		}
		return e.searchParsed(ctx, pq, k, "")
	}
	key := e.cacheKey(pq, k)
	start := time.Now()
	if v, ok := e.rcache.Lookup(key, e.cacheTag()); ok {
		hits, agg, per := v.(*cachedResult).copyOut()
		agg.ResultCacheHit = true
		agg.Elapsed = time.Since(start)
		return hits, agg, per, nil
	}
	f, leader := e.rcache.Join(key)
	if !leader {
		v, ok, werr := f.Wait(ctx)
		if werr != nil {
			return nil, Stats{}, nil, werr
		}
		if ok {
			e.rcache.NoteCoalesced()
			hits, agg, per := v.(*cachedResult).copyOut()
			agg.SingleFlightShared = true
			agg.Elapsed = time.Since(start)
			return hits, agg, per, nil
		}
		// The leader's outcome wasn't shareable (error, degraded, or a
		// generation moved mid-execution): execute independently.
		return e.executeAndStore(ctx, pq, k, key, nil, gate)
	}
	return e.executeAndStore(ctx, pq, k, key, f, gate)
}

// executeAndStore runs a real backend execution for key: pass the gate,
// execute, then — only for a clean result whose generation tag did not
// move during execution — store it and share it with coalesced
// followers. As single-flight leader (f non-nil) it is obligated to
// Finish on every path, including gate rejection and panics.
func (e *ShardedEngine) executeAndStore(ctx context.Context, pq query.Query, k int, key string, f *core.Flight, gate func(context.Context) (func(), error)) ([]Hit, Stats, []Stats, error) {
	finished := false
	if f != nil {
		defer func() {
			if !finished {
				e.rcache.Finish(key, f, nil, false)
			}
		}()
	}
	if gate != nil {
		release, err := gate(ctx)
		if err != nil {
			return nil, Stats{}, nil, err
		}
		defer release()
	}
	tagBefore := e.cacheTag()
	hits, agg, per, err := e.searchParsed(ctx, pq, k, "")
	var r *cachedResult
	if err == nil && !agg.Degraded && len(agg.ShardErrors) == 0 {
		// Recompute the tag after execution: if any generation moved while
		// we ran, the result may mix old and new state and must not be
		// remembered under either tag.
		if tag := e.cacheTag(); tag == tagBefore {
			r = &cachedResult{hits: hits, agg: agg, per: per}
			e.rcache.Store(key, tag, r, r.sizeBytes())
		}
	}
	if f != nil {
		finished = true
		if r != nil {
			e.rcache.Finish(key, f, r, true)
		} else {
			e.rcache.Finish(key, f, nil, false)
		}
	}
	if r != nil {
		// The stored slices now belong to the cache; hand back copies.
		h, _, p := r.copyOut()
		return h, agg, p, nil
	}
	return hits, agg, per, err
}

// SearchConventional evaluates q with the conventional baseline: the
// context (if any) filters the result set but statistics come from the
// whole collection. It neither reads nor fills the result cache.
func (e *ShardedEngine) SearchConventional(q string, k int) ([]Hit, Stats, error) {
	return e.searchPlan(q, k, core.PlanConventional)
}

// SearchStraightforward evaluates a contextual q without consulting
// materialized views (the paper's straightforward plan), for comparison.
// It neither reads nor fills the result cache.
func (e *ShardedEngine) SearchStraightforward(q string, k int) ([]Hit, Stats, error) {
	return e.searchPlan(q, k, core.PlanStraightforward)
}

func (e *ShardedEngine) searchPlan(q string, k int, plan core.Plan) ([]Hit, Stats, error) {
	pq, err := query.Parse(q)
	if err != nil {
		return nil, Stats{}, err
	}
	hits, agg, _, err := e.searchParsed(context.Background(), pq, k, plan)
	return hits, agg, err
}

// searchParsed executes a parsed query: the current slices through the
// cluster's admitted scatter-gather under plan ("" lets every shard
// choose), then the one hit/stats conversion. On a live engine the
// per-slice reports end with the mutable segment's (when it is
// non-empty), after the shards'.
func (e *ShardedEngine) searchParsed(ctx context.Context, pq query.Query, k int, plan core.Plan) ([]Hit, Stats, []Stats, error) {
	slices, _, release := e.current()
	defer release()
	res, sum, err := e.cluster.SearchSlices(ctx, slices, pq, k, plan)
	if err != nil {
		return nil, Stats{}, nil, err
	}
	hits := make([]Hit, len(res))
	for i, h := range res {
		hits[i] = Hit{
			DocID: int(h.Global),
			Title: slices[h.Slice].Eng.Index().StoredField(h.Local, "title"),
			Score: h.Score,
		}
	}
	agg := convertStats(sum.Agg)
	// The cluster-level wall clock (fan-out + both phases + merge), not
	// the slowest shard's own clock, is what a serving SLO measures.
	agg.Elapsed = sum.Elapsed
	agg.ShardErrors = sum.Failed
	perShard := make([]Stats, len(sum.PerShard))
	for i, st := range sum.PerShard {
		perShard[i] = convertStats(st)
	}
	return hits, agg, perShard, nil
}

// NumShards returns the number of document partitions.
func (e *ShardedEngine) NumShards() int { return e.cluster.NumShards() }

// NumDocs returns the logical collection size across all shards,
// including live documents not yet compacted.
func (e *ShardedEngine) NumDocs() int { return e.cluster.NumDocs() + e.Pending() }

// NumViews returns the total number of materialized views across all
// shards (0 when views are disabled).
func (e *ShardedEngine) NumViews() int {
	total := 0
	slices, _, release := e.current()
	defer release()
	for _, sl := range slices {
		if cat := sl.Eng.Catalog(); cat != nil {
			total += cat.Len()
		}
	}
	return total
}

// CatalogStatus is one shard's view catalog as it serves: how many of
// its views serve, how many failed their first-use check (quarantined:
// their contexts take the exact straightforward plan), and, when the
// shard's views.gob did not open, why.
type CatalogStatus struct {
	Views       int    `json:"views"`
	Quarantined int    `json:"views_quarantined"`
	OpenError   string `json:"catalog_error,omitempty"`
}

// Catalogs reports every shard's catalog, in shard order.
func (e *ShardedEngine) Catalogs() []CatalogStatus {
	slices, _, release := e.current()
	defer release()
	out := make([]CatalogStatus, e.cluster.NumShards())
	for i := range out {
		if cat := slices[i].Eng.Catalog(); cat != nil {
			out[i].Quarantined = cat.Quarantined()
			out[i].Views = cat.Len() - out[i].Quarantined
		}
		if err := e.cluster.CatalogErr(i); err != nil {
			out[i].OpenError = err.Error()
		}
	}
	return out
}

// ContextSize returns the number of documents matching a context
// specification (space-separated predicates).
func (e *ShardedEngine) ContextSize(context string) int64 {
	var n int64
	preds := strings.Fields(context)
	slices, _, release := e.current()
	defer release()
	for _, sl := range slices {
		n += sl.Eng.ContextSize(preds)
	}
	return n
}

// Explain reports, without executing the query, which evaluation plan
// Search would choose on each shard and why: the analyzed keywords and
// context, the matched view (if any) with its size and per-keyword
// df-column coverage, and the straightforward plan's cost bound.
func (e *ShardedEngine) Explain(q string) (string, error) {
	pq, err := query.Parse(q)
	if err != nil {
		return "", err
	}
	slices, _, release := e.current()
	defer release()
	return core.ExplainSlices(slices, pq)
}

// Generations returns each shard's current serving generation.
func (e *ShardedEngine) Generations() []uint64 { return e.cluster.Generations() }

// ShardHealth is one shard's entry in a ClusterHealth report. The JSON
// tags are the wire format cmd/csserve's /healthz uses.
type ShardHealth struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Generation is the shard's current serving generation.
	Generation uint64 `json:"generation"`
	// State is the shard's circuit-breaker state: "closed" (healthy),
	// "open" (shedding), or "half-open" (probing recovery).
	State string `json:"state"`
	// ConsecutiveFailures counts failures since the last success while
	// closed.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Trips counts closed→open transitions over the breaker's lifetime.
	Trips int64 `json:"trips"`
	// Recoveries counts half-open→closed transitions.
	Recoveries int64 `json:"recoveries"`
	// RetryInMs is how long until an open breaker probes again (0 unless
	// open).
	RetryInMs int64 `json:"retry_in_ms"`
}

// ClusterHealth reports the cluster's serving health: per-shard breaker
// states, how many shards admission would accept a query for right now,
// the policy floor, and the corrupt-block quarantine count.
type ClusterHealth struct {
	NumShards         int           `json:"num_shards"`
	AvailableShards   int           `json:"available_shards"`
	MinShards         int           `json:"min_shards"`
	QuarantinedBlocks int64         `json:"quarantined_blocks"`
	Shards            []ShardHealth `json:"shards"`
}

// Healthy reports whether the cluster can currently serve within
// policy: at least max(1, MinShards) shards available.
func (h ClusterHealth) Healthy() bool {
	min := h.MinShards
	if min < 1 {
		min = 1
	}
	return h.AvailableShards >= min
}

// Health snapshots the cluster's serving health without mutating any
// breaker state.
func (e *ShardedEngine) Health() ClusterHealth {
	ch := e.cluster.Health()
	pol := e.cluster.Policy()
	out := ClusterHealth{
		NumShards:         ch.NumShards,
		AvailableShards:   ch.Available,
		MinShards:         pol.MinShards,
		QuarantinedBlocks: e.cluster.Quarantined(),
		Shards:            make([]ShardHealth, len(ch.Shards)),
	}
	for i, s := range ch.Shards {
		out.Shards[i] = ShardHealth{
			Shard:               s.Shard,
			Generation:          s.Generation,
			State:               string(s.State),
			ConsecutiveFailures: s.ConsecutiveFailures,
			Trips:               s.Trips,
			Recoveries:          s.Recoveries,
			RetryInMs:           s.RetryIn.Milliseconds(),
		}
	}
	return out
}

// CanServe reports whether a query would currently be admitted: at
// least max(1, MinShards) shards have a closed (or probing-ready)
// circuit breaker. Serving front ends use it to shed before paying for
// a doomed fan-out.
func (e *ShardedEngine) CanServe() bool { return e.cluster.CanServe() }

// QuarantinedBlocks returns the total corrupt blocks quarantined across
// all shards (always 0 for heap-resident indexes).
func (e *ShardedEngine) QuarantinedBlocks() int64 { return e.cluster.Quarantined() }

// ArmFault injects a chaos fault into one shard's query execution until
// disarmed: delay stalls each phase (a delay past ShardTimeout
// manifests as a shard timeout), panicFault crashes the shard's worker,
// corrupt simulates a corrupt-block read escaping decode. A chaos-drill
// and test seam — never arm it on a production cluster.
func (e *ShardedEngine) ArmFault(s int, delay time.Duration, panicFault, corrupt bool) error {
	return e.cluster.ArmFault(s, shard.Fault{Delay: delay, Panic: panicFault, Corrupt: corrupt})
}

// DisarmFaults removes every armed chaos fault.
func (e *ShardedEngine) DisarmFaults() { e.cluster.DisarmFaults() }

// SelectionTime returns the total per-shard view selection and
// materialization time during the build (zero for loaded or view-less
// engines).
func (e *ShardedEngine) SelectionTime() time.Duration { return e.selectTime }

// ResultCacheStats is a counter snapshot of the serving-layer result
// cache; its JSON tags are the wire format cmd/csserve's /statsz uses.
type ResultCacheStats = core.ResultCacheStats

// ResultCacheStats snapshots the result cache (zeros when disabled).
func (e *ShardedEngine) ResultCacheStats() ResultCacheStats { return e.rcache.Stats() }

// BlockCacheStats is a counter snapshot of the decoded-block caches
// under this engine, summed across shards (all zeros for heap-resident
// indexes, which do not bound decoded blocks); its JSON tags are the
// wire format cmd/csserve's /statsz uses.
type BlockCacheStats = postings.BlockCacheStats

// BlockCacheStats sums the per-slice decoded-block cache counters.
func (e *ShardedEngine) BlockCacheStats() BlockCacheStats {
	var out BlockCacheStats
	slices, _, release := e.current()
	defer release()
	for _, sl := range slices {
		cs := sl.Eng.Index().BlockCacheStats()
		out.Budget += cs.Budget
		out.Used += cs.Used
		out.Hits += cs.Hits
		out.Misses += cs.Misses
		out.Insertions += cs.Insertions
		out.Evictions += cs.Evictions
		out.Promotions += cs.Promotions
		out.GhostHits += cs.GhostHits
	}
	return out
}
