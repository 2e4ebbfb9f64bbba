package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"csrank"
	"csrank/internal/analysis"
	"csrank/internal/core"
	"csrank/internal/corpus"
	"csrank/internal/fsx"
	"csrank/internal/index"
	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/segment"
	"csrank/internal/shard"
	"csrank/internal/views"
)

// layerEnv is what the per-layer pass works on once the server has
// stopped.
type layerEnv struct {
	workload string
	dir      string // the data dir the server just served
	pristine string // an untouched copy of the freshly built data dir
	scratch  string // for files this pass writes
	pin      *pinned
	log      []logQuery
	traceQ   []int // log indexes of the traced queries, a third per class
	// httpP50us is the one-client HTTP median over traceQ, taken while the
	// server was still up.
	httpP50us float64
}

func ingestWorkload(w string) bool { return w == wlLiveIngest || w == wlPostCompact }

// servedPruning reports whether the workload's csserve runs with
// -pruning, so in-process engines match the served configuration.
func servedPruning(w string) bool { return w != wlZipf }

func coreOpts(pruning bool, parallelism int) core.Options {
	return core.Options{Parallelism: parallelism, Pruning: pruning}
}

// copyDir copies the regular files under src into dst (created).
func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// wireResponse mirrors csserve's /search response (its type is private
// to package main there); Hits and Stats are the library's wire types.
type wireResponse struct {
	Query string       `json:"query"`
	K     int          `json:"k"`
	Hits  []csrank.Hit `json:"hits"`
	Stats csrank.Stats `json:"stats"`
}

// replayer re-runs the two-phase scatter-gather protocol call by call
// on one goroutine, so every layer boundary can carry a span.
type replayer struct {
	slices []core.Slice
}

// replayOut is one replayed query's answer and merged execution report.
type replayOut struct {
	pq   query.Query
	hits []goldHit
	agg  core.ExecStats
}

func (r *replayer) run(ctx context.Context, tr *tracer, qi int, text string) (replayOut, error) {
	var out replayOut
	root := tr.begin(qi, 0, "query")
	defer tr.end(root, "")

	id := tr.begin(qi, root, "query.parse")
	pq, err := query.Parse(text)
	tr.end(id, "")
	if err != nil {
		return out, err
	}
	out.pq = pq

	n := len(r.slices)
	parts := make([]ranking.CollectionStats, n)
	per := make([]core.ExecStats, n)
	for i, sl := range r.slices {
		id := tr.begin(qi, root, "core.stats")
		cs, st, err := sl.Eng.StatsFor(ctx, pq)
		tr.end(id, "core.stats."+string(st.Plan))
		if err != nil {
			return out, fmt.Errorf("slice %d stats: %w", i, err)
		}
		parts[i], per[i] = cs, st
	}

	id = tr.begin(qi, root, "core.merge_stats")
	merged := core.MergeCollectionStats(parts...)
	tr.end(id, "")

	lists := make([][]core.Result, n)
	for i, sl := range r.slices {
		id := tr.begin(qi, root, "core.score")
		res, st, err := sl.Eng.SearchWithStats(ctx, pq, topK, merged)
		tr.end(id, "")
		if err != nil {
			return out, fmt.Errorf("slice %d score: %w", i, err)
		}
		lists[i] = res
		per[i] = core.MergeStats(per[i], st)
	}

	id = tr.begin(qi, root, "core.merge_results")
	for i, sl := range r.slices {
		for j := range lists[i] {
			lists[i][j].DocID = sl.Globals[lists[i][j].DocID]
		}
	}
	top := core.MergeResults(topK, lists...)
	tr.end(id, "")

	id = tr.begin(qi, root, "index.stored_fields")
	resp := wireResponse{Query: text, K: topK, Hits: make([]csrank.Hit, len(top))}
	for i, h := range top {
		title := ""
		for _, sl := range r.slices {
			g := sl.Globals
			j := sort.Search(len(g), func(j int) bool { return g[j] >= h.DocID })
			if j < len(g) && g[j] == h.DocID {
				title = sl.Eng.Index().StoredField(uint32(j), "title")
				break
			}
		}
		resp.Hits[i] = csrank.Hit{DocID: int(h.DocID), Title: title, Score: h.Score}
	}
	tr.end(id, "")

	out.agg = core.MergeStats(per...)
	resp.Stats = csrank.Stats{
		Plan: string(out.agg.Plan), UsedView: out.agg.UsedView, ResultSize: out.agg.ResultSize,
		ContextSize: out.agg.ContextSize, PrunedDocs: out.agg.Pruning.DocsSkipped,
		PrunedContainers: out.agg.Pruning.ContainersSkipped,
	}
	id = tr.begin(qi, root, "csserve.encode")
	_, err = json.Marshal(resp)
	tr.end(id, "")
	if err != nil {
		return out, err
	}
	for _, h := range top {
		out.hits = append(out.hits, goldHit{DocID: int(h.DocID), Score: h.Score})
	}
	return out, nil
}

// measureLayers runs the traced replay and the per-layer timings and
// returns them by metric name, plus the spans of the traced replay.
func measureLayers(ctx context.Context, env layerEnv) (map[string]float64, []span, error) {
	m := map[string]float64{}
	if err := measureServedDir(ctx, env, m); err != nil {
		return nil, nil, err
	}
	spans, err := measureReplay(ctx, env, m)
	if err != nil {
		return nil, nil, err
	}
	if err := measureKernels(env, m); err != nil {
		return nil, nil, err
	}
	if err := measureSegment(ctx, env, m); err != nil {
		return nil, nil, err
	}
	return m, spans, nil
}

// openPublic opens the served dir through the public API the way
// csserve does for this workload.
func openPublic(env layerEnv, resultCache int64) (*csrank.ShardedEngine, error) {
	opts := csrank.BuildOptions{Pruning: servedPruning(env.workload), Cache: csrank.CacheOptions{ResultBytes: resultCache}}
	if ingestWorkload(env.workload) {
		// An hour between refresh ticks: nothing is added here, and Open
		// itself publishes every document the log holds.
		return csrank.OpenLive(env.dir, opts, csrank.IngestOptions{RefreshEvery: time.Hour})
	}
	return csrank.OpenSharded(env.dir, opts)
}

// measureServedDir times the public-API entry points on the served dir:
// open, search per class with caches off, and the result-cache hit path.
func measureServedDir(ctx context.Context, env layerEnv, m map[string]float64) error {
	t0 := time.Now()
	eng, err := openPublic(env, 0)
	if err != nil {
		return fmt.Errorf("open served dir: %w", err)
	}
	m["csrank.open_ms"] = ms(time.Since(t0))
	search := func(e *csrank.ShardedEngine, qi int) error {
		_, st, err := e.SearchCtx(ctx, env.log[qi].Text, topK)
		if err == nil && st.Degraded {
			err = fmt.Errorf("degraded: %s", st.DegradedReason)
		}
		return err
	}
	var firstErr error
	timeQueries := func(e *csrank.ShardedEngine, idx []int) float64 {
		for _, qi := range idx { // first touch decodes mapped blocks
			if err := search(e, qi); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("query %q: %w", env.log[qi].Text, err)
			}
		}
		return p50Each(len(idx), func(i int) { search(e, idx[i]) }) / 1e3
	}
	for _, class := range []string{classLarge, classSmall, classFree} {
		m["csrank.search_us."+class] = timeQueries(eng, classOf(env, class))
	}
	inproc := timeQueries(eng, env.traceQ)
	if err := eng.Close(); err != nil {
		return err
	}
	if firstErr != nil {
		return firstErr
	}

	cached, err := openPublic(env, 64<<20)
	if err != nil {
		return err
	}
	m["csrank.cache_hit_us"] = timeQueries(cached, env.traceQ) // the first pass stored every answer
	if env.workload == wlZipf {
		inproc = m["csrank.cache_hit_us"] // what this workload's server does per request
	}
	m["csserve.overhead_us"] = env.httpP50us - inproc
	hits := cached.ResultCacheStats().Hits
	if err := cached.Close(); err != nil {
		return err
	}
	if hits < int64(len(env.traceQ)) {
		return fmt.Errorf("result cache served %d hits over %d repeated queries", hits, len(env.traceQ))
	}
	return firstErr
}

func classOf(env layerEnv, class string) []int {
	var out []int
	for _, qi := range env.traceQ {
		if env.log[qi].Class == class {
			out = append(out, qi)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measureReplay opens the served dir's slices at Parallelism 1, checks
// the call-by-call replay against the real scatter-gather, and derives
// the span-based metrics and the per-query work counts.
func measureReplay(ctx context.Context, env layerEnv, m map[string]float64) ([]span, error) {
	opts := coreOpts(servedPruning(env.workload), 1)
	var slices []core.Slice
	var reference func(pq query.Query) ([]goldHit, error)
	if ingestWorkload(env.workload) {
		ing, err := segment.Open(env.dir, segment.Options{Core: opts, RefreshEvery: time.Hour})
		if err != nil {
			return nil, err
		}
		defer ing.Close()
		slices = ing.View().Slices
		reference = func(pq query.Query) ([]goldHit, error) {
			hits, _, _, err := ing.Search(ctx, pq, topK)
			out := make([]goldHit, len(hits))
			for i, h := range hits {
				out[i] = goldHit{DocID: int(h.Global), Score: h.Score}
			}
			return out, err
		}
	} else {
		cluster, err := shard.Open(env.dir, opts)
		if err != nil {
			return nil, err
		}
		slices, _ = cluster.Slices()
		reference = func(pq query.Query) ([]goldHit, error) {
			hits, _, err := cluster.Search(ctx, pq, topK)
			out := make([]goldHit, len(hits))
			for i, h := range hits {
				out[i] = goldHit{DocID: int(h.Global), Score: h.Score}
			}
			return out, err
		}
	}
	rp := &replayer{slices: slices}

	// First pass, untraced: the work counts (first touch of every mapped
	// block included, so they repeat exactly for a seed) and the check
	// that the replay is the protocol the cluster really runs.
	var (
		contextual, usedView                int
		listWork, viewGroups, resultSize    int64
		docsSkipped, boundChecks, undecoded int64
		resultSizes                         = map[int]int{}
		parsed                              = map[int]query.Query{}
		nQueries                            = float64(len(env.traceQ))
	)
	for _, qi := range env.traceQ {
		out, err := rp.run(ctx, nil, qi, env.log[qi].Text)
		if err != nil {
			return nil, fmt.Errorf("replay %q: %w", env.log[qi].Text, err)
		}
		pq := out.pq
		parsed[qi] = pq
		want, err := reference(pq)
		if err != nil {
			return nil, err
		}
		if len(want) != len(out.hits) {
			return nil, fmt.Errorf("replay %q: %d hits, scatter-gather returned %d", env.log[qi].Text, len(out.hits), len(want))
		}
		for i := range want {
			if want[i] != out.hits[i] {
				return nil, fmt.Errorf("replay %q rank %d: %v, scatter-gather returned %v", env.log[qi].Text, i, out.hits[i], want[i])
			}
		}
		if pq.IsContextual() {
			contextual++
			if out.agg.UsedView {
				usedView++
			}
		}
		listWork += out.agg.ListWork()
		viewGroups += out.agg.ViewGroupsScanned
		resultSize += int64(out.agg.ResultSize)
		resultSizes[qi] = out.agg.ResultSize
		docsSkipped += out.agg.Pruning.DocsSkipped
		boundChecks += out.agg.Pruning.BoundChecks
		undecoded += out.agg.Pruning.ContainersSkippedUndecoded
	}
	m["core.view_plan_share"] = ratio(float64(usedView), float64(contextual))
	m["core.list_work_per_query"] = float64(listWork) / nQueries
	m["core.view_groups_per_query"] = float64(viewGroups) / nQueries
	m["core.result_size_mean"] = float64(resultSize) / nQueries
	m["core.pruned_docs_ratio"] = ratio(float64(docsSkipped), float64(boundChecks))
	m["core.containers_skipped_undecoded"] = float64(undecoded) / nQueries
	m["views.count"], m["views.catalog_mb"] = 0, 0 // reported even when no slice has a catalog
	for _, sl := range slices {
		if cat := sl.Eng.Catalog(); cat != nil {
			m["views.count"] += float64(cat.Len())
			m["views.catalog_mb"] += float64(cat.TotalBytes()) / (1 << 20)
		}
	}

	// Timed rounds run every query twice back to back, untraced and
	// traced, swapping which goes first from query to query: machine drift
	// and the warm second execution then hit both sides alike.
	var tr *tracer
	var plain, traced time.Duration
	for round := 0; round < 3; round++ {
		tr = newTracer(16 * len(env.traceQ))
		for i, qi := range env.traceQ {
			first, second := (*tracer)(nil), tr
			if i%2 == 1 {
				first, second = tr, nil
			}
			t0 := time.Now()
			rp.run(ctx, first, qi, env.log[qi].Text)
			t1 := time.Now()
			rp.run(ctx, second, qi, env.log[qi].Text)
			t2 := time.Now()
			if first == nil {
				plain, traced = plain+t1.Sub(t0), traced+t2.Sub(t1)
			} else {
				traced, plain = traced+t1.Sub(t0), plain+t2.Sub(t1)
			}
		}
	}
	spans := tr.spans
	m["trace.overhead_ratio"] = float64(traced) / float64(plain)
	m["trace.coverage"] = coverage(spans)

	self := selfTimes(spans)
	byName := map[string][]float64{}
	statsByClass := map[string][]float64{}
	coreSum := map[int]float64{} // per query: the layers Cluster.Search itself runs
	for _, s := range spans {
		d := float64(self[s.ID])
		switch s.Name {
		case "query", "query.parse", "index.stored_fields", "csserve.encode":
		default:
			coreSum[s.Query] += d
		}
		if strings.HasPrefix(s.Name, "core.stats.") {
			statsByClass[env.log[s.Query].Class] = append(statsByClass[env.log[s.Query].Class], d)
			continue
		}
		byName[s.Name] = append(byName[s.Name], d)
	}
	m["query.parse_us"] = quantile(byName["query.parse"], 0.5) / 1e3
	m["core.merge_stats_us"] = quantile(byName["core.merge_stats"], 0.5) / 1e3
	m["core.merge_results_us"] = quantile(byName["core.merge_results"], 0.5) / 1e3
	m["csserve.encode_us"] = quantile(byName["csserve.encode"], 0.5) / 1e3
	m["core.stats_us.view"] = quantile(statsByClass[classLarge], 0.5) / 1e3
	m["core.stats_us.small"] = quantile(statsByClass[classSmall], 0.5) / 1e3

	// The same large-class statistics calls on engines without a catalog.
	bare := make([]*core.Engine, len(slices))
	for i, sl := range slices {
		bare[i] = core.New(sl.Eng.Index(), nil, opts)
	}
	large := classOf(env, classLarge)
	var sf []float64
	for _, qi := range large {
		for _, e := range bare {
			t0 := time.Now()
			_, _, err := e.StatsFor(ctx, parsed[qi])
			sf = append(sf, float64(time.Since(t0)))
			if err != nil {
				return nil, err
			}
		}
	}
	m["core.stats_us.straightforward"] = quantile(sf, 0.5) / 1e3
	m["core.stats_view_speedup"] = ratio(m["core.stats_us.straightforward"], m["core.stats_us.view"])

	// Scoring with and without pruning on the broadest context-free
	// queries: all shards of one query, one after the other.
	free := classOf(env, classFree)
	sort.Slice(free, func(i, j int) bool {
		if resultSizes[free[i]] != resultSizes[free[j]] {
			return resultSizes[free[i]] > resultSizes[free[j]]
		}
		return free[i] < free[j]
	})
	if len(free) > 20 {
		free = free[:20]
	}
	for _, mode := range []struct {
		name    string
		pruning bool
	}{{"core.score_us.exhaustive", false}, {"core.score_us.pruned", true}} {
		engs := make([]*core.Engine, len(slices))
		for i, sl := range slices {
			engs[i] = core.New(sl.Eng.Index(), sl.Eng.Catalog(), coreOpts(mode.pruning, 1))
		}
		var ds []float64
		for rep := 0; rep < 3; rep++ {
			for _, qi := range free {
				parts := make([]ranking.CollectionStats, len(engs))
				for i, e := range engs {
					parts[i], _, _ = e.StatsFor(ctx, parsed[qi])
				}
				cs := core.MergeCollectionStats(parts...)
				t0 := time.Now()
				for _, e := range engs {
					if _, _, err := e.SearchWithStats(ctx, parsed[qi], topK, cs); err != nil {
						return nil, err
					}
				}
				ds = append(ds, float64(time.Since(t0)))
			}
		}
		m[mode.name] = quantile(ds, 0.5) / 1e3
	}

	// The real scatter-gather on one processor, so its goroutines run one
	// after the other and the difference to the serial replay is what the
	// fan-out machinery itself costs, not what a second core saves.
	prev := runtime.GOMAXPROCS(1)
	var walls, over []float64
	for _, qi := range env.traceQ {
		t0 := time.Now()
		_, err := reference(parsed[qi])
		d := float64(time.Since(t0))
		if err != nil {
			runtime.GOMAXPROCS(prev)
			return nil, err
		}
		walls = append(walls, d)
		over = append(over, d-coreSum[qi])
	}
	runtime.GOMAXPROCS(prev)
	m["shard.search_us"] = quantile(walls, 0.5) / 1e3
	m["shard.fanout_overhead_us"] = quantile(over, 0.5) / 1e3
	return spans, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureKernels times the layers below the engine on shard 0 of the
// pristine build: the same structures whatever the workload did to the
// served dir.
func measureKernels(env layerEnv, m map[string]float64) error {
	sd := shard.ShardDir(env.pristine, 0)
	idxPath := filepath.Join(sd, "index.gob")
	t0 := time.Now()
	ix, err := index.OpenMapped(idxPath)
	if err != nil {
		return err
	}
	m["index.open_mapped_ms"] = ms(time.Since(t0))
	defer ix.Close()
	t0 = time.Now()
	cat, err := views.LoadFile(filepath.Join(sd, "views.gob"))
	if err != nil {
		return err
	}
	m["views.load_ms"] = ms(time.Since(t0))

	schema := ix.Schema()
	kwAn, an := analysis.Standard(), analysis.Keyword()
	type lists struct {
		ctx      []string
		words    []string
		kw, pred []*postings.List
	}
	resolve := func(qi int) (lists, bool) {
		pq, _ := query.Parse(env.log[qi].Text)
		var l lists
		for _, w := range pq.Keywords {
			l.words = append(l.words, kwAn.Analyze(w)...)
		}
		for _, c := range pq.NormalizedContext() {
			l.ctx = append(l.ctx, an.Analyze(c)...)
		}
		for _, w := range l.words {
			l.kw = append(l.kw, ix.Postings(schema.ContentField, w))
		}
		for _, c := range l.ctx {
			l.pred = append(l.pred, ix.Postings(schema.PredicateField, c))
		}
		for _, p := range append(append([]*postings.List(nil), l.kw...), l.pred...) {
			if p == nil {
				return l, false // term absent from this shard
			}
		}
		return l, true
	}

	// Conjunctions of every traced query's lists.
	var interNs, entries float64
	for _, qi := range env.traceQ {
		l, ok := resolve(qi)
		if !ok {
			continue
		}
		all := append(append([]*postings.List(nil), l.kw...), l.pred...)
		var st postings.Stats
		t0 := time.Now()
		postings.Intersect(all, &st)
		interNs += float64(time.Since(t0))
		entries += float64(st.EntriesScanned)
	}
	m["postings.intersect_ns_per_entry"] = ratio(interNs, entries)

	// Count kernels and view lookups on the large contexts.
	docLen := func(doc uint32) int64 { return ix.FieldLen(doc, schema.ContentField) }
	var countSum, countTF, answer []float64
	var matchCtx [][]string
	for _, qi := range classOf(env, classLarge) {
		l, ok := resolve(qi)
		if !ok {
			continue
		}
		var st postings.Stats
		t0 := time.Now()
		postings.CountSum(l.pred, docLen, &st)
		countSum = append(countSum, float64(time.Since(t0)))
		t0 = time.Now()
		postings.CountTFSum(l.kw[0], l.pred, &st)
		countTF = append(countTF, float64(time.Since(t0)))
		matchCtx = append(matchCtx, l.ctx)
		if v := cat.Match(l.ctx); v != nil {
			t0 = time.Now()
			_, err := v.Answer(l.ctx, l.words, &st)
			answer = append(answer, float64(time.Since(t0)))
			if err != nil {
				return err
			}
		}
	}
	if len(matchCtx) == 0 || len(answer) == 0 {
		return fmt.Errorf("no large-class query resolves on shard 0 (contexts %d, view answers %d)", len(matchCtx), len(answer))
	}
	m["postings.countsum_us"] = quantile(countSum, 0.5) / 1e3
	m["postings.count_tf_sum_us"] = quantile(countTF, 0.5) / 1e3
	m["views.answer_us"] = quantile(answer, 0.5) / 1e3
	m["views.match_ns"] = medianNsPerOp(20, 500, func(i int) { cat.Match(matchCtx[i%len(matchCtx)]) })

	// Block decode: a second mapping of the same file with a 1 MiB block
	// cache, every keyword list of the traced queries walked once.
	cold, err := index.OpenMappedFS(fsx.OS, idxPath, 1<<20)
	if err != nil {
		return err
	}
	defer cold.Close()
	var decodeNs, decoded float64
	seen := map[string]bool{}
	for _, qi := range env.traceQ {
		l, _ := resolve(qi)
		for _, w := range l.words {
			pl := cold.Postings(schema.ContentField, w)
			if pl == nil || seen[w] {
				continue
			}
			seen[w] = true
			n := 0
			t0 := time.Now()
			pl.ForEach(func(_, _ uint32) { n++ })
			decodeNs += float64(time.Since(t0))
			decoded += float64(n)
		}
	}
	m["postings.decode_ns_per_posting"] = ratio(decodeNs, decoded)

	// Scoring arithmetic on fixed two-term statistics.
	sc := ranking.NewPivotedTFIDF()
	qs := ranking.NewQueryStats([]string{"alpha", "beta"})
	cs := ranking.CollectionStats{N: 24000, TotalLen: 24000 * 130,
		DF: map[string]int64{"alpha": 900, "beta": 40}, TC: map[string]int64{"alpha": 1500, "beta": 55}}
	cs.IndexTerms(qs.DistinctTerms())
	ds := ranking.DocStats{TFs: []int64{3, 1}, Len: 120}
	var sink float64
	m["ranking.score_indexed_ns"] = medianNsPerOp(20, 20000, func(i int) {
		ds.Len = int64(100 + i&63)
		sink += sc.ScoreIndexed(qs, ds, cs)
	})
	m["ranking.upper_bound_ns"] = medianNsPerOp(20, 20000, func(i int) {
		sink += sc.UpperBound(qs, int32(1+i&7), 100, cs)
	})
	if sink == 0 {
		return fmt.Errorf("scorer returned only zeros")
	}

	// Result-cache bookkeeping without the engine around it.
	rc := core.NewResultCache(64 << 20)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = "pivoted-tfidf|views=false\x0010\x00" + strconv.Itoa(i) + "\x00keyword\x01\x00context"
	}
	val := &struct{ pad [64]byte }{}
	m["core.result_cache.store_ns"] = medianNsPerOp(8, len(keys)/8, func(i int) { rc.Store(keys[i], "0:0;", val, 1024) })
	m["core.result_cache.lookup_ns"] = medianNsPerOp(20, 2000, func(i int) {
		if _, ok := rc.Lookup(keys[i%len(keys)], "0:0;"); !ok {
			sink = -1
		}
	})
	if sink == -1 {
		return fmt.Errorf("result cache lost a stored key")
	}

	// Growing shard 0's heap index by a batch, as a compaction does.
	parts, _, err := shard.Split(env.pin.base, numShards)
	if err != nil {
		return err
	}
	heap, err := index.BuildFrom(corpus.Schema(), 0, parts[0])
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := index.Extend(heap, env.pin.held[:extendBatch]); err != nil {
		return err
	}
	m["index.extend_ms"] = ms(time.Since(t0))
	return nil
}

// extendBatch is the number of documents index.extend_ms appends.
const extendBatch = 250

// segmentDocs is how many held-out documents the segment timings add
// before refresh, search and compaction are clocked (the _at_1000 in
// the metric names).
const segmentDocs = 1000

// measureSegment clocks the ingester on the pristine copy: durable adds,
// one refresh with segmentDocs pending, searches over shards plus that
// segment, and the compaction that drains it.
func measureSegment(ctx context.Context, env layerEnv, m map[string]float64) error {
	ing, err := segment.Open(env.pristine, segment.Options{Core: coreOpts(true, 1), RefreshEvery: time.Hour})
	if err != nil {
		return err
	}
	defer ing.Close()
	docs := env.pin.held
	if len(docs) > segmentDocs {
		docs = docs[:segmentDocs]
	}
	var addErr error
	m["segment.add_us"] = p50Each(len(docs), func(i int) {
		if _, err := ing.Add(docs[i]); err != nil && addErr == nil {
			addErr = err
		}
	}) / 1e3
	if addErr != nil {
		return addErr
	}
	t0 := time.Now()
	if err := ing.Refresh(); err != nil {
		return err
	}
	m["segment.refresh_ms.at_1000"] = ms(time.Since(t0))
	var searchErr error
	m["segment.search_us.at_1000"] = p50Each(len(env.traceQ), func(i int) {
		pq, _ := query.Parse(env.log[env.traceQ[i]].Text)
		if _, _, _, err := ing.Search(ctx, pq, topK); err != nil && searchErr == nil {
			searchErr = err
		}
	}) / 1e3
	if searchErr != nil {
		return searchErr
	}
	t0 = time.Now()
	if err := ing.Compact(); err != nil {
		return err
	}
	m["segment.compact_s.at_1000"] = time.Since(t0).Seconds()
	if p := ing.Pending(); p != 0 {
		return fmt.Errorf("compaction left %d documents pending", p)
	}
	return ing.Close()
}
