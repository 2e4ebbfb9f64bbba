// Command csbench is the repository's benchmark: it builds the pinned
// corpus as csbuild would, serves it with the csserve binary built from
// the same checkout, drives one workload over HTTP from this process,
// checks every answer against an independently computed ranking, and
// prints the metrics BENCHMARK.json declares.
//
//	bash bench/run.sh --workload uniform-uncached --seed 11 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 the run additionally replays the query
// protocol in-process with a span around every layer call and the last
// line carries the per-layer metrics instead. Without --workload every
// workload runs in turn. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"csrank"
	"csrank/internal/corpus"
)

type config struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	short    bool
	work     string // scratch directory, removed on exit
	serveBin string
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is everything one workload run produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Clients   int                `json:"clients"`
	Short     bool               `json:"short_non_comparable,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Counts behind the percentiles, and the set-up repetitions.
	Samples    int       `json:"samples"`
	WindowN    []int     `json:"window_samples"`
	WindowP50  []float64 `json:"window_p50_ms"`
	WindowP99  []float64 `json:"window_p99_ms"`
	SetupRunsS []float64 `json:"setup_runs_s"`
}

func main() {
	var cfg config
	var trace int
	var printSpec, checkRepeat bool
	flag.StringVar(&cfg.root, "root", ".", "checkout root (holds go.mod, cmd/csserve and BENCHMARK.json)")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: each in turn)")
	flag.Int64Var(&cfg.seed, "seed", 11, "seed for query sampling, zipf draws and ingest order")
	flag.Float64Var(&cfg.seconds, "seconds", defaultRunSeconds, "measured seconds per workload")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced in-process pass and report per-layer metrics")
	flag.BoolVar(&cfg.short, "short", false, "smoke run on a smaller corpus; numbers are not comparable")
	flag.BoolVar(&printSpec, "print-spec", false, "print BENCHMARK.json and exit")
	flag.BoolVar(&checkRepeat, "check-repeat", false, "run every workload twice and fail if an end-to-end metric moves by more than its bound")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.sz = defaultSizes
	if cfg.short {
		cfg.sz = shortSizes
	}
	if printSpec {
		out, _ := json.MarshalIndent(spec(), "", "  ") // plain structs of strings and numbers
		fmt.Println(string(out))
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok, err := run(ctx, cfg, checkRepeat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run prepares the scratch area and the server binary, runs what the
// flags ask for, and reports whether every answer was correct.
func run(ctx context.Context, cfg config, checkRepeat bool) (bool, error) {
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return false, err
	}
	cfg.root = root
	if _, err := os.Stat(filepath.Join(root, "cmd", "csserve")); err != nil {
		return false, fmt.Errorf("%s is not a checkout of the repository: %w", root, err)
	}
	build := filepath.Join(root, ".bench_build")
	cfg.serveBin = filepath.Join(build, "bin", "csserve")
	if err := buildServer(ctx, root, cfg.serveBin); err != nil {
		return false, err
	}
	cfg.work, err = os.MkdirTemp(build, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(cfg.work)
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}

	names := []string{cfg.workload}
	if cfg.workload == "" || checkRepeat {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := serverFlags[cfg.workload]; !ok {
		return false, fmt.Errorf("unknown workload %q", cfg.workload)
	}

	runSet := func() ([]*runResult, error) {
		var set []*runResult
		for _, name := range names {
			res, err := runWorkload(ctx, cfg, name, outDir)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			printResult(res)
			set = append(set, res)
		}
		return set, nil
	}
	first, err := runSet()
	if err != nil {
		return false, err
	}
	results := first
	agree := true
	if checkRepeat {
		second, err := runSet()
		if err != nil {
			return false, err
		}
		results = append(results, second...)
		agree = compareSets(first, second)
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), results); err != nil {
		return false, err
	}
	correct := true
	for _, r := range results {
		correct = correct && r.Correct
	}
	if len(names) == 1 && !checkRepeat {
		line := resultLine{Correct: first[0].Correct, Attempted: first[0].Attempted, Failed: first[0].Failed, Metrics: map[string]metricValue{}}
		specs, vals := endToEnd, first[0].EndToEnd
		if cfg.trace {
			specs, vals = perLayer, first[0].PerLayer
		}
		for _, ms := range specs {
			v, ok := vals[ms.Name]
			if !ok {
				return false, fmt.Errorf("metric %s was not measured", ms.Name)
			}
			line.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
		}
		out, err := json.Marshal(line)
		if err != nil {
			return false, err
		}
		fmt.Println(string(out))
	}
	return correct && agree, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult lists every metric by name with its unit.
func printResult(r *runResult) {
	note := ""
	if r.Short {
		note = "  [-short: NOT comparable with full runs]"
	}
	fmt.Printf("== %s  seed=%d  closed loop, %d clients on keep-alive connections, %.0fs measured%s\n", r.Workload, r.Seed, r.Clients, r.Seconds, note)
	fmt.Printf("   attempted=%d failed=%d correct=%v  samples=%d per-window=%v\n   window-p50-ms=%.3f window-p99-ms=%.3f set-up-runs-s=%.3f\n",
		r.Attempted, r.Failed, r.Correct, r.Samples, r.WindowN, r.WindowP50, r.WindowP99, r.SetupRunsS)
	if r.FirstErr != "" {
		fmt.Printf("   first error: %s\n", r.FirstErr)
	}
	for _, ms := range endToEnd {
		fmt.Printf("   %-36s %14.4f %s\n", ms.Name, r.EndToEnd[ms.Name], ms.Unit)
	}
	for _, ms := range perLayer {
		if v, ok := r.PerLayer[ms.Name]; ok {
			fmt.Printf("   %-36s %14.4f %s\n", ms.Name, v, ms.Unit)
		}
	}
}

// setupReps is how often a run sets the system up from scratch; setup_s
// is the median. A traced run does not report setup_s and sets up once.
const setupReps = 3

// liveWriteRate is the paced writer's documents per second.
const liveWriteRate = 100

// verifySample is how many log queries are checked after the live-ingest
// stream has ended.
const verifySample = 300

// numWindows splits the measured interval for the tail percentile.
const numWindows = 6

func runWorkload(ctx context.Context, cfg config, name, outDir string) (*runResult, error) {
	clients := runtime.NumCPU()
	res := &runResult{Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Clients: clients, Short: cfg.short}
	pin, err := generateCorpus(cfg.sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	baseCites := pin.corp.Docs[:cfg.sz.BaseDocs]
	log, err := buildQueryLog(baseCites, buildMeshIndex(baseCites), cfg.sz.Queries, cfg.seed)
	if err != nil {
		return nil, err
	}
	// The expected rankings: over the base documents, or — where the
	// held-out stream ends up in the collection — over all of them.
	goldDocs := pin.base
	if ingestWorkload(name) {
		goldDocs = append(append(goldDocs[:0:0], pin.base...), pin.held...)
	}
	gold, err := buildGolden(goldDocs, log)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "csbench: %s: corpus of %d documents in %.2fs, %d queries, golden rankings over %d documents in %.2fs\n",
		name, len(pin.corp.Docs), pin.genTime.Seconds(), len(log), len(goldDocs), gold.buildTime.Seconds())

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 2}, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	// Set-up, repeated: build the data dir as csbuild does, bring it into
	// the workload's state, start csserve, wait for /healthz.
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var (
		srv      *server
		dir      string
		bt       buildTimes
		pristine = filepath.Join(cfg.work, name+"-pristine")
	)
	for r := 0; r < reps; r++ {
		dir = filepath.Join(cfg.work, fmt.Sprintf("%s-data-%d", name, r))
		t0 := time.Now()
		if bt, err = buildDataDir(dir, pin.base); err != nil {
			return nil, err
		}
		if cfg.trace {
			if err := copyDir(pristine, dir); err != nil {
				return nil, err
			}
		}
		if name == wlPostCompact {
			if err := compactTwice(dir, pin.heldCites); err != nil {
				return nil, err
			}
		}
		if srv, err = startServer(ctx, cfg.serveBin, dir, serverFlags[name], client); err != nil {
			return nil, err
		}
		res.SetupRunsS = append(res.SetupRunsS, time.Since(t0).Seconds())
		if r < reps-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
		// A later run of this workload must start from empty directories.
		os.RemoveAll(dir)
		os.RemoveAll(pristine)
	}()

	plan := loadPlan{
		url: srv.url, urls: searchURLs(srv.url, log), gold: gold,
		warmup:  time.Duration(cfg.seconds / numWindows * float64(time.Second)),
		windows: numWindows,
		winLen:  time.Duration(cfg.seconds / numWindows * float64(time.Second)),
	}
	everyQuery := make([]int, len(log))
	for i := range everyQuery {
		everyQuery[i] = i
	}
	switch name {
	case wlUniform:
		rr := cycle(everyQuery)
		for c := 0; c < clients; c++ {
			plan.pickers = append(plan.pickers, rr)
		}
	case wlZipf:
		for c := 0; c < clients; c++ {
			plan.pickers = append(plan.pickers, newZipf(len(log), cfg.seed+int64(c)+1).next)
		}
	case wlLiveIngest:
		// Statistics move with every document, so answers are checked after
		// the stream, not during it. One reader, one writer.
		plan.gold = nil
		plan.pickers = []picker{cycle(everyQuery)}
		plan.writeDocs, plan.writeRate = pin.heldCites, liveWriteRate
	case wlPostCompact:
		rr := cycle(firstOfClass(log, classLarge, len(log)))
		for c := 0; c < clients; c++ {
			plan.pickers = append(plan.pickers, rr)
		}
	}
	res.Clients = len(plan.pickers)

	if name == wlZipf {
		// All 3 000 answers fit the default result cache: from here on the
		// workload is the hit path.
		if err := pretouch(client, plan); err != nil {
			return nil, err
		}
		res.Attempted += len(log)
	}
	before, err := srv.statsz()
	if err != nil {
		return nil, err
	}
	if name == wlPostCompact && (before.NumDocs != len(goldDocs) || before.PendingDocs != 0) {
		return nil, fmt.Errorf("prepared data dir serves %d documents with %d pending, want %d and 0", before.NumDocs, before.PendingDocs, len(goldDocs))
	}
	pollCtx, stopPoll := context.WithCancel(ctx)
	polled := make(chan pollResult, 1)
	go func() { polled <- pollStatsz(pollCtx, srv, before) }()
	load, err := runLoad(ctx, client, plan)
	stopPoll()
	poll := <-polled
	if err != nil {
		return nil, err
	}
	if poll.err != nil {
		return nil, poll.err
	}
	after, err := srv.statsz()
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = res.Attempted+load.attempted, load.failed+load.ackFailed
	firstErr := load.firstErr

	if name == wlLiveIngest {
		checked, failed, err := verifyAfterStream(client, srv, plan, pin, gold, load.docsPosted, cfg.seed)
		if err != nil {
			return nil, err
		}
		res.Attempted += checked
		res.Failed += len(failed)
		if firstErr == nil && len(failed) > 0 {
			firstErr = failed[0]
		}
	}

	env := layerEnv{workload: name, dir: dir, pristine: pristine, pin: pin, log: log}
	if cfg.trace {
		for _, class := range []string{classLarge, classSmall, classFree} {
			env.traceQ = append(env.traceQ, firstOfClass(log, class, cfg.sz.TraceQ/3)...)
		}
		sort.Ints(env.traceQ)
		oneClientGold := gold
		if name == wlLiveIngest {
			oneClientGold = nil // compactions may still be moving generations
		}
		var oneErr error
		for pass := 0; pass < 2; pass++ { // the first pass warms caches and connections
			env.httpP50us = p50Each(len(env.traceQ), func(i int) {
				if _, err := searchOnce(client, plan.urls[env.traceQ[i]], env.traceQ[i], oneClientGold); err != nil && oneErr == nil {
					oneErr = err
				}
			}) / 1e3
		}
		if oneErr != nil {
			return nil, fmt.Errorf("one-client pass: %w", oneErr)
		}
	}

	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, err
	}
	dirSize, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	res.Samples, res.WindowN, res.WindowP50, res.WindowP99 = load.search.N, load.search.WindowN, load.search.WindowP50, load.search.WindowP99
	res.EndToEnd = map[string]float64{
		"setup_s":       median(res.SetupRunsS),
		"search_qps":    load.search.RatePerS,
		"search_p50_ms": load.search.P50ms,
		"search_p99_ms": load.search.P99ms,
		"server_rss_mb": rss,
	}

	if cfg.trace {
		layer, spans, err := measureLayers(ctx, env)
		if err != nil {
			return nil, fmt.Errorf("per-layer pass: %w", err)
		}
		if err := writeSpans(filepath.Join(outDir, "trace-"+name+".jsonl"), spans); err != nil {
			return nil, err
		}
		// The spans name queries by log index; this is the log.
		if err := writeJSON(filepath.Join(outDir, "querylog-"+name+".json"), log); err != nil {
			return nil, err
		}
		rc := func(s statsz) (float64, float64) { return float64(s.ResultCache.Hits), float64(s.ResultCache.Misses) }
		h1, m1 := rc(after)
		h0, m0 := rc(before)
		layer["csrank.result_cache.hit_ratio"] = ratio(h1-h0, (h1-h0)+(m1-m0))
		layer["csrank.result_cache.coalesced"] = float64(after.ResultCache.Coalesced - before.ResultCache.Coalesced)
		layer["csrank.result_cache.evictions"] = float64(after.ResultCache.Evictions - before.ResultCache.Evictions)
		bh, bm := float64(after.BlockCache.Hits-before.BlockCache.Hits), float64(after.BlockCache.Misses-before.BlockCache.Misses)
		layer["postings.blockcache.hit_ratio"] = ratio(bh, bh+bm)
		layer["postings.blockcache.evictions"] = float64(after.BlockCache.Evictions - before.BlockCache.Evictions)
		layer["csserve.shed_ratio"] = ratio(float64(after.ShedQueue+after.ShedTimeout-before.ShedQueue-before.ShedTimeout), float64(after.Requests-before.Requests))
		layer["csserve.ingest_ack_p50_ms"] = load.acks.P50ms
		layer["csserve.ingest_ack_p99_ms"] = load.acks.P99ms
		layer["segment.pending_max"] = float64(poll.pendingMax)
		layer["segment.compactions"] = float64(poll.compactions)
		layer["index.data_dir_mb"] = float64(dirSize) / (1 << 20)
		layer["index.build_docs_per_s"] = float64(len(pin.base)) / bt.Build.Seconds()
		layer["index.save_mapped_ms"] = ms(bt.SaveIdx)
		layer["index.bytes_per_posting"] = ratio(float64(bt.IdxBytes), float64(bt.Postings))
		layer["selection.select_s"] = bt.Select.Seconds()
		layer["corpus.generate_s"] = pin.genTime.Seconds()
		res.PerLayer = layer
	}

	res.Correct = res.Failed == 0 && firstErr == nil
	if firstErr != nil {
		res.FirstErr = firstErr.Error()
	}
	return res, nil
}

// compactTwice brings a freshly built data dir to generation 2 the way
// a live deployment would get there: open it for ingestion, add half
// the held-out documents, compact, add the rest, compact.
func compactTwice(dir string, held []corpus.Citation) error {
	eng, err := csrank.OpenLive(dir, csrank.BuildOptions{Pruning: true}, csrank.IngestOptions{RefreshEvery: time.Hour})
	if err != nil {
		return err
	}
	half := len(held) / 2
	for _, batch := range [][]corpus.Citation{held[:half], held[half:]} {
		for _, d := range batch {
			if _, err := eng.Add(csrank.Document{Title: d.Title, Body: d.Abstract, Predicates: d.Mesh}); err != nil {
				eng.Close()
				return err
			}
		}
		if err := eng.Compact(); err != nil {
			eng.Close()
			return err
		}
	}
	if p := eng.Pending(); p != 0 {
		eng.Close()
		return fmt.Errorf("compaction left %d documents pending", p)
	}
	return eng.Close()
}

// pollResult is what the 1 Hz /statsz poll saw during the load.
type pollResult struct {
	pendingMax  int
	compactions int // generation advances of shard 0
	err         error
}

func pollStatsz(ctx context.Context, srv *server, before statsz) pollResult {
	var out pollResult
	gen := before.Generations[0]
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return out
		case <-tick.C:
		}
		st, err := srv.statsz()
		if err != nil {
			if ctx.Err() == nil {
				out.err = err
			}
			return out
		}
		out.pendingMax = max(out.pendingMax, st.PendingDocs)
		if g := st.Generations[0]; g > gen {
			out.compactions += int(g - gen)
			gen = g
		}
	}
}

// verifyAfterStream ends the live-ingest workload: post whatever the
// paced writer had not reached, wait until every document is searchable
// and the backlog is below the compaction threshold, then check a
// sample of the log against the ranking over all documents — which by
// the system's bit-identity contract holds in any compaction state.
func verifyAfterStream(client *http.Client, srv *server, plan loadPlan, pin *pinned, gold *golden, posted int, seed int64) (int, []error, error) {
	for _, d := range pin.heldCites[posted:] {
		if err := postDoc(client, srv.url, d); err != nil {
			return 0, nil, fmt.Errorf("posting the rest of the stream: %w", err)
		}
	}
	want := len(pin.base) + len(pin.held)
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := srv.statsz()
		if err != nil {
			return 0, nil, err
		}
		if st.NumDocs == want && st.PendingDocs < liveCompactThreshold {
			break
		}
		if time.Now().After(deadline) {
			return 0, nil, fmt.Errorf("ingest did not settle: %d of %d documents, %d pending (compaction stuck?)", st.NumDocs, want, st.PendingDocs)
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond) // two refresh ticks: the last acknowledged document is searchable
	idx := rand.New(rand.NewSource(seed)).Perm(len(plan.urls))
	if len(idx) > verifySample {
		idx = idx[:verifySample]
	}
	var failed []error
	for _, qi := range idx {
		if _, err := searchOnce(client, plan.urls[qi], qi, gold); err != nil {
			failed = append(failed, err)
		}
	}
	return len(idx), failed, nil
}
