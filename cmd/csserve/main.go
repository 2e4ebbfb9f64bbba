// Command csserve is an HTTP/JSON front end for context-sensitive
// search over a data directory written by csbuild (any -shards; the
// single-engine layout older builds wrote opens as one shard). Every
// request is admission-controlled: a bounded pool of in-flight searches
// fronted by a bounded wait queue, so overload sheds (429/503) at the
// door instead of melting latency.
//
// Usage:
//
//	csserve -data ./data -addr :8080 -max-inflight 16 -timeout 200ms
//
// Endpoints:
//
//	GET /search?q=pancreas+leukemia+%7C+digestive_system&k=10
//	GET /statsz    cumulative counters + latency quantiles
//	GET /healthz
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"csrank"
	"csrank/internal/fsx"
	"csrank/internal/ranking"
	"csrank/internal/segment"
)

func main() {
	var (
		data         = flag.String("data", "data", "data directory written by csbuild")
		addr         = flag.String("addr", ":8080", "listen address")
		scorer       = flag.String("scorer", "pivoted-tfidf", strings.Join(ranking.Names(), " | "))
		pruning      = flag.Bool("pruning", false, "enable block-max dynamic pruning (rank-safe)")
		resultCache  = flag.Int64("result-cache", 64<<20, "serving-layer result cache budget in bytes; hits skip the shard fan-out AND the admission queue, concurrent identical queries coalesce onto one execution (0 = off)")
		timeout      = flag.Duration("timeout", 0, "per-request deadline covering queue wait + execution; on expiry partial results are returned flagged degraded (0 = unbounded)")
		statsBudget  = flag.Duration("stats-budget", 0, "per-query context-statistics budget; past it ranking uses approximate statistics flagged degraded (0 = unbounded)")
		k            = flag.Int("k", 10, "default result count (override per request with ?k=)")
		maxInflight  = flag.Int("max-inflight", runtime.GOMAXPROCS(0), "maximum concurrently executing searches")
		maxQueue     = flag.Int("max-queue", 64, "maximum searches waiting for an execution slot; beyond this requests are shed with 429")
		queueTimeout = flag.Duration("queue-timeout", 100*time.Millisecond, "longest a search may wait for a slot before shedding with 503 (0 = wait for the request deadline)")
		perShard     = flag.Bool("per-shard-stats", false, "include each shard's statistics report in /search responses")
		ingest       = flag.Bool("ingest", false, "accept POST /index writes (requires the cluster layout csbuild writes; documents are WAL-durable before the 200)")
		refresh      = flag.Duration("refresh", 500*time.Millisecond, "with -ingest: how often newly added documents become searchable (0 = on every Add)")
		compactAt    = flag.Int("compact-threshold", 10000, "with -ingest: compact the mutable segment into the shard indexes once it holds this many documents (0 = never automatically)")
		minShards    = flag.Int("min-shards", 0, "fewest healthy shards for which a partial answer is still served; fewer fails the query (0 = 1, i.e. answer while any shard survives)")
		shardTimeout = flag.Duration("shard-timeout", 0, "per-shard per-phase budget; a shard exceeding it is dropped from the query and the survivors answer flagged degraded (0 = off)")
		chaos        = flag.Bool("chaos", false, "serve POST /chaosz fault injection (per-shard latency/panic/corruption) — never in production")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "on SIGINT/SIGTERM: how long to wait for in-flight requests before exiting")
	)
	// -cache is parsed and ignored: the context-statistics cache it sized
	// is gone, but bench/ still starts servers with -cache 0.
	flag.Int("cache", 0, "ignored (the context-statistics cache was removed; accepted so old command lines still start)")
	flag.Parse()
	cfg := serveConfig{
		data: *data, addr: *addr, scorer: *scorer,
		pruning: *pruning, resultCache: *resultCache,
		timeout: *timeout, statsBudget: *statsBudget, k: *k,
		maxInflight: *maxInflight, maxQueue: *maxQueue, queueTimeout: *queueTimeout,
		perShard: *perShard, ingest: *ingest, refresh: *refresh, compactAt: *compactAt,
		minShards: *minShards, shardTimeout: *shardTimeout, chaos: *chaos, drainTimeout: *drainTimeout,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "csserve:", err)
		os.Exit(1)
	}
}

// serveConfig carries the parsed flags into run.
type serveConfig struct {
	data, addr, scorer         string
	k                          int
	resultCache                int64
	pruning, perShard, ingest  bool
	timeout, statsBudget       time.Duration
	maxInflight, maxQueue      int
	queueTimeout               time.Duration
	refresh                    time.Duration
	compactAt                  int
	minShards                  int
	shardTimeout, drainTimeout time.Duration
	chaos                      bool
}

func run(cfg serveConfig) error {
	opts := csrank.BuildOptions{
		Scorer:       csrank.Scorer(cfg.scorer),
		Pruning:      cfg.pruning,
		Timeout:      cfg.timeout,
		StatsBudget:  cfg.statsBudget,
		MinShards:    cfg.minShards,
		ShardTimeout: cfg.shardTimeout,
		Cache:        csrank.CacheOptions{ResultBytes: cfg.resultCache},
	}
	eng, err := openEngine(cfg.data, opts, cfg.ingest, cfg.refresh, cfg.compactAt)
	if err != nil {
		return err
	}
	reportCatalogsAndLog(os.Stderr, cfg.data, eng, cfg.ingest)
	srv := newServer(eng, newAdmission(cfg.maxInflight, cfg.maxQueue, cfg.queueTimeout), cfg.k, cfg.timeout, cfg.perShard, cfg.ingest)
	srv.chaos = cfg.chaos
	fmt.Fprintf(os.Stderr, "csserve: %d documents over %d shard(s); listening on %s (inflight≤%d queue≤%d ingest=%v chaos=%v)\n",
		eng.NumDocs(), eng.NumShards(), cfg.addr, cfg.maxInflight, cfg.maxQueue, cfg.ingest, cfg.chaos)

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting, drain
	// in-flight requests up to the drain timeout, flush the final
	// counters so the run's tail is in the logs even without a scraper,
	// then close the engine (with -ingest: stop refresh, wait for a
	// running compaction, close the segment log). The handler is
	// installed before the listener, so a signal that follows the first
	// served request is never missed.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv.routes()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		return errors.Join(err, eng.Close())
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "csserve: %s: draining (up to %s)\n", sig, cfg.drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		shutErr := httpSrv.Shutdown(ctx)
		if final, err := json.Marshal(srv.statsz()); err == nil {
			fmt.Fprintf(os.Stderr, "csserve: final statsz: %s\n", final)
		}
		closeErr := eng.Close()
		if shutErr != nil {
			return errors.Join(fmt.Errorf("drain incomplete after %s: %w", cfg.drainTimeout, shutErr), closeErr)
		}
		if closeErr != nil {
			return fmt.Errorf("close engine: %w", closeErr)
		}
		fmt.Fprintln(os.Stderr, "csserve: drained cleanly")
		return nil
	}
}

// reportCatalogsAndLog writes one line per shard whose views.gob did not
// open and, without ingestion, one line counting the acknowledged
// documents the committed generation's ingestion log holds, which a
// read-only server does not serve (or saying why the log is unreadable).
func reportCatalogsAndLog(w io.Writer, data string, eng *csrank.ShardedEngine, ingest bool) {
	for i, st := range eng.Catalogs() {
		if st.OpenError != "" {
			fmt.Fprintf(w, "csserve: shard %d serves without views: %s\n", i, st.OpenError)
		}
	}
	if ingest {
		return
	}
	gen := eng.Generations()[0]
	if n, err := segment.LoggedDocs(fsx.OS, data, gen); err != nil {
		fmt.Fprintf(w, "csserve: generation-%d ingestion log: %v\n", gen, err)
	} else if n > 0 {
		fmt.Fprintf(w, "csserve: %d acknowledged documents in the generation-%d ingestion log are not served without -ingest\n", n, gen)
	}
}

// openEngine opens the data directory: writable with ingest — WAL
// recovery, mutable segment, background refresh and compaction — and
// read-only otherwise.
func openEngine(data string, opts csrank.BuildOptions, ingest bool, refresh time.Duration, compactAt int) (*csrank.ShardedEngine, error) {
	if ingest {
		return csrank.OpenLive(data, opts, csrank.IngestOptions{
			RefreshEvery:     refresh,
			CompactThreshold: compactAt,
		})
	}
	return csrank.OpenSharded(data, opts)
}
