package main

// The metric and workload tables below are the single source of the
// names this command emits. BENCHMARK.json at the repo root is
// `csbench -print-spec`; TestBenchmarkJSONMatchesSpec keeps the two in
// step.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wlUniform     = "uniform-uncached"
	wlZipf        = "zipf-cached"
	wlLiveIngest  = "live-ingest"
	wlPostCompact = "post-compact"
)

var workloads = []workloadSpec{
	{wlUniform, "round-robin over the whole query log with every cache off: each query pays parse, 4-shard stats, merge, pruned scoring and encode, so execution-layer changes show here"},
	{wlZipf, "zipf s=1.0 over the same log with default caches, log pre-touched: the hit path (HTTP, parse, key, result-cache lookup, encode) sets p50 and qps; execution layers are bypassed"},
	{wlLiveIngest, "one closed-loop reader beside a paced 100 docs/s writer with refresh ticks and background compactions: a read gain that taxes writes or the mutable segment shows here"},
	{wlPostCompact, "large-context queries on a twice-compacted data dir with no writes: views are dropped after generation 0, so the straightforward plan and count kernels do the work"},
}

// Bounds are the share of the parent's median by which a metric may
// worsen. They are sized against the spreads in bench/README.md
// ("Measured noise floor"): on the shared two-core box the wall-clock
// metrics move by up to an eighth between identical runs, so their
// bounds are the widest the driver allows.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"search_qps", "1/s", "higher", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_p99_ms", "ms", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.15},
}

var perLayer = []metricSpec{
	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "csrank.search_us.large", Unit: "us", Better: "lower"},
	{Name: "csrank.search_us.small", Unit: "us", Better: "lower"},
	{Name: "csrank.search_us.free", Unit: "us", Better: "lower"},
	{Name: "csrank.cache_hit_us", Unit: "us", Better: "lower"},
	{Name: "csrank.open_ms", Unit: "ms", Better: "lower"},
	{Name: "csrank.result_cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "csrank.result_cache.coalesced", Unit: "count", Better: "higher"},
	{Name: "csrank.result_cache.evictions", Unit: "count", Better: "lower"},
	{Name: "csserve.overhead_us", Unit: "us", Better: "lower"},
	{Name: "csserve.encode_us", Unit: "us", Better: "lower"},
	{Name: "csserve.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "csserve.ingest_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "csserve.ingest_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.search_us", Unit: "us", Better: "lower"},
	{Name: "shard.fanout_overhead_us", Unit: "us", Better: "lower"},
	{Name: "core.stats_us.view", Unit: "us", Better: "lower"},
	{Name: "core.stats_us.straightforward", Unit: "us", Better: "lower"},
	{Name: "core.stats_view_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.stats_us.small", Unit: "us", Better: "lower"},
	{Name: "core.merge_stats_us", Unit: "us", Better: "lower"},
	{Name: "core.merge_results_us", Unit: "us", Better: "lower"},
	{Name: "core.score_us.exhaustive", Unit: "us", Better: "lower"},
	{Name: "core.score_us.pruned", Unit: "us", Better: "lower"},
	{Name: "core.result_cache.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "core.result_cache.store_ns", Unit: "ns", Better: "lower"},
	{Name: "core.view_plan_share", Unit: "ratio", Better: "higher"},
	{Name: "core.list_work_per_query", Unit: "count", Better: "lower"},
	{Name: "core.view_groups_per_query", Unit: "count", Better: "lower"},
	{Name: "core.result_size_mean", Unit: "count", Better: "lower"},
	{Name: "core.pruned_docs_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.containers_skipped_undecoded", Unit: "count", Better: "higher"},
	{Name: "views.match_ns", Unit: "ns", Better: "lower"},
	{Name: "views.answer_us", Unit: "us", Better: "lower"},
	{Name: "views.count", Unit: "count", Better: "lower"},
	{Name: "views.catalog_mb", Unit: "MB", Better: "lower"},
	{Name: "views.load_ms", Unit: "ms", Better: "lower"},
	{Name: "postings.intersect_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "postings.countsum_us", Unit: "us", Better: "lower"},
	{Name: "postings.count_tf_sum_us", Unit: "us", Better: "lower"},
	{Name: "postings.decode_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "postings.blockcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "postings.blockcache.evictions", Unit: "count", Better: "lower"},
	{Name: "ranking.score_indexed_ns", Unit: "ns", Better: "lower"},
	{Name: "ranking.upper_bound_ns", Unit: "ns", Better: "lower"},
	{Name: "index.open_mapped_ms", Unit: "ms", Better: "lower"},
	{Name: "index.save_mapped_ms", Unit: "ms", Better: "lower"},
	{Name: "index.build_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "index.bytes_per_posting", Unit: "B", Better: "lower"},
	{Name: "index.extend_ms", Unit: "ms", Better: "lower"},
	{Name: "index.data_dir_mb", Unit: "MB", Better: "lower"},
	{Name: "selection.select_s", Unit: "s", Better: "lower"},
	{Name: "corpus.generate_s", Unit: "s", Better: "lower"},
	{Name: "segment.add_us", Unit: "us", Better: "lower"},
	{Name: "segment.refresh_ms.at_1000", Unit: "ms", Better: "lower"},
	{Name: "segment.search_us.at_1000", Unit: "us", Better: "lower"},
	{Name: "segment.compact_s.at_1000", Unit: "s", Better: "lower"},
	{Name: "segment.pending_max", Unit: "count", Better: "lower"},
	{Name: "segment.compactions", Unit: "count", Better: "higher"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// benchmarkSpec is the shape of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// defaultRunSeconds is the measured window the driver passes as
// --seconds; with four workloads the driver's run budget leaves about
// 35 s per invocation including set-up.
const defaultRunSeconds = 12

func spec() benchmarkSpec {
	return benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultRunSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
