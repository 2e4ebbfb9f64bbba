// Command csload is an open-loop load generator for csserve: it replays
// a query log at one or more fixed arrival rates — firing on schedule
// regardless of how many requests are still in flight, the arrival
// model that actually exposes tail latency and overload shedding — and
// reports exact p50/p90/p99/p999 latency, shed counts (429/503) and
// degraded-result counts per rate level.
//
// Usage:
//
//	csload -url http://localhost:8080 -queries queries.txt -qps 100,400 -duration 10s -out BENCH.json
//	csload -url http://localhost:8080 -compare http://localhost:8081 -queries queries.txt
//	csload -url http://localhost:8080 -ingest 1000 -qps 200 -out INGEST.json
//
// With -ingest N, csload POSTs N synthetic documents to /index
// (csserve must be running with -ingest) at the first -qps rate and
// reports the latency of the WAL-durable acks.
//
// With -compare, every query is sent to both servers and the hit lists
// (doc_id and score) must match exactly — the sharded-vs-single
// equivalence check CI runs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	neturl "net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// hit / searchResponse mirror csserve's wire format (the csrank.Hit and
// csrank.Stats JSON tags).
type hit struct {
	DocID int     `json:"doc_id"`
	Title string  `json:"title"`
	Score float64 `json:"score"`
}

type shardError struct {
	Shard int    `json:"shard"`
	Kind  string `json:"kind"`
	Err   string `json:"error"`
}

type searchResponse struct {
	Hits  []hit `json:"hits"`
	Stats struct {
		Degraded           bool         `json:"degraded"`
		ShardErrors        []shardError `json:"shard_errors"`
		ResultCacheHit     bool         `json:"result_cache_hit"`
		SingleFlightShared bool         `json:"single_flight_shared"`
	} `json:"stats"`
}

// errCounts splits request failures by class so a report distinguishes
// "the server is down" (connection errors) from "the server is broken"
// (HTTP 5xx) from "the server is slow" (client-side timeout) — three
// different pages for three different on-call actions.
type errCounts struct {
	conn    atomic.Int64 // dial/reset/EOF: could not complete an exchange
	timeout atomic.Int64 // the client's own deadline expired waiting
	http5xx atomic.Int64 // a well-formed 5xx other than the shed 503
	other   atomic.Int64 // anything else (unexpected status, bad body)
}

// transport classifies a round-trip error from the HTTP client.
func (c *errCounts) transport(err error) {
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		c.timeout.Add(1)
		return
	}
	c.conn.Add(1)
}

// status classifies an unexpected (non-200, non-shed) response code.
func (c *errCounts) status(code int) {
	if code >= 500 {
		c.http5xx.Add(1)
		return
	}
	c.other.Add(1)
}

func (c *errCounts) total() int64 {
	return c.conn.Load() + c.timeout.Load() + c.http5xx.Load() + c.other.Load()
}

// indexRequest / indexResponse mirror csserve's POST /index wire
// format.
type indexRequest struct {
	Title      string   `json:"title"`
	Body       string   `json:"body"`
	Predicates []string `json:"predicates,omitempty"`
}

type indexResponse struct {
	DocID   int `json:"doc_id"`
	Pending int `json:"pending"`
}

// ingestResult is the -ingest report: open-loop write throughput and
// the latency of the WAL-durable ack.
type ingestResult struct {
	QPS            float64 `json:"qps"`
	Sent           int64   `json:"sent"`
	OK             int64   `json:"ok"`
	Shed429        int64   `json:"shed_429"`
	Shed503        int64   `json:"shed_503"`
	Errors         int64   `json:"errors"` // total of the classes below
	ConnErrors     int64   `json:"conn_errors"`
	HTTP5xx        int64   `json:"http_5xx"`
	ClientTimeouts int64   `json:"client_timeouts"`
	FirstDoc       int     `json:"first_doc_id"`
	LastDoc        int     `json:"last_doc_id"`
	P50ms          float64 `json:"p50_ms"`
	P90ms          float64 `json:"p90_ms"`
	P99ms          float64 `json:"p99_ms"`
	P999ms         float64 `json:"p999_ms"`
}

// levelResult is one arrival-rate level's outcome in the -out report.
type levelResult struct {
	QPS            float64 `json:"qps"`
	Sent           int64   `json:"sent"`
	OK             int64   `json:"ok"`
	Shed429        int64   `json:"shed_429"`
	Shed503        int64   `json:"shed_503"`
	Errors         int64   `json:"errors"` // total of the classes below
	ConnErrors     int64   `json:"conn_errors"`
	HTTP5xx        int64   `json:"http_5xx"`
	ClientTimeouts int64   `json:"client_timeouts"`
	Degraded       int64   `json:"degraded"`
	Partial        int64   `json:"partial_results"`
	// DistinctQueries is how many distinct query strings the level fired —
	// the working-set size a result cache had to cover (with -zipf this is
	// typically far below Sent).
	DistinctQueries int64 `json:"distinct_queries"`
	// CacheHits / CacheMisses / Coalesced split the OK responses by how
	// the server answered: from its result cache, by real execution, or by
	// coalescing onto a concurrent identical query.
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	Coalesced   int64   `json:"coalesced"`
	P50ms       float64 `json:"p50_ms"`
	P90ms       float64 `json:"p90_ms"`
	P99ms       float64 `json:"p99_ms"`
	P999ms      float64 `json:"p999_ms"`
	// HitP*/MissP* are the same percentiles over only the cache-hit and
	// only the cache-miss responses (0 when the class is empty) — the
	// split that shows what the cache is actually worth at the tail.
	HitP50ms   float64 `json:"hit_p50_ms"`
	HitP90ms   float64 `json:"hit_p90_ms"`
	HitP99ms   float64 `json:"hit_p99_ms"`
	HitP999ms  float64 `json:"hit_p999_ms"`
	MissP50ms  float64 `json:"miss_p50_ms"`
	MissP90ms  float64 `json:"miss_p90_ms"`
	MissP99ms  float64 `json:"miss_p99_ms"`
	MissP999ms float64 `json:"miss_p999_ms"`
}

func main() {
	var (
		url      = flag.String("url", "http://localhost:8080", "csserve base URL")
		queries  = flag.String("queries", "", "file with one query per line (required)")
		qps      = flag.String("qps", "100", "comma-separated arrival rates to run, e.g. 100,400")
		duration = flag.Duration("duration", 10*time.Second, "how long to hold each rate")
		k        = flag.Int("k", 10, "results per query")
		out      = flag.String("out", "", "write the per-level JSON report here (default stdout)")
		compare  = flag.String("compare", "", "second csserve URL: check both servers return identical hits for every query, then exit")
		ingest   = flag.Int("ingest", 0, "POST this many synthetic documents to /index at the first -qps rate and report ack latency, then exit")
		chaos    = flag.Bool("chaos", false, "run a chaos drill: arm corrupt-block and panic faults on one shard via /chaosz (csserve must run with -chaos), assert every query still answers as a degraded partial result with zero errors and that the breakers recover, then exit")
		zipf     = flag.Bool("zipf", false, "draw queries from a zipfian (s=1.0) popularity distribution over the query log instead of cycling it — the skewed arrival pattern result caches are sized for")
	)
	flag.Parse()
	if err := run(*url, *queries, *qps, *duration, *k, *out, *compare, *ingest, *chaos, *zipf); err != nil {
		fmt.Fprintln(os.Stderr, "csload:", err)
		os.Exit(1)
	}
}

func run(url, queriesPath, qpsList string, duration time.Duration, k int, out, compare string, ingest int, chaos, zipf bool) error {
	if ingest > 0 {
		field := strings.Split(qpsList, ",")[0]
		rate, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil || rate <= 0 {
			return fmt.Errorf("bad qps %q", field)
		}
		fmt.Fprintf(os.Stderr, "csload: ingesting %d documents at %v qps into %s\n", ingest, rate, url)
		ir, err := runIngest(url, ingest, rate)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "csload: sent=%d ok=%d shed=%d+%d errors=%d p50=%.2fms p99=%.2fms p999=%.2fms\n",
			ir.Sent, ir.OK, ir.Shed429, ir.Shed503, ir.Errors, ir.P50ms, ir.P99ms, ir.P999ms)
		if ir.Errors > 0 {
			return fmt.Errorf("%d ingest request(s) failed with non-shed errors", ir.Errors)
		}
		return writeReport(out, ir)
	}
	if queriesPath == "" {
		return fmt.Errorf("-queries is required")
	}
	qs, err := readQueries(queriesPath)
	if err != nil {
		return err
	}
	if compare != "" {
		n, err := compareServers(url, compare, qs, k)
		if err != nil {
			return err
		}
		fmt.Printf("compare: %d queries identical on %s and %s\n", n, url, compare)
		return nil
	}
	if chaos {
		cr, err := runChaos(url, qs, k)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "csload: chaos: queries=%d ok=%d degraded=%d attributed=%d errors=%d recovered=%v\n",
			cr.Queries, cr.OK, cr.Degraded, cr.Attributed, cr.Errors, cr.Recovered)
		return writeReport(out, cr)
	}

	var results []levelResult
	for _, field := range strings.Split(qpsList, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil || rate <= 0 {
			return fmt.Errorf("bad qps %q", field)
		}
		fmt.Fprintf(os.Stderr, "csload: %v qps for %v against %s (zipf=%v)\n", rate, duration, url, zipf)
		lr, err := runLevel(url, qs, rate, duration, k, zipf)
		if err != nil {
			return err
		}
		results = append(results, lr)
		fmt.Fprintf(os.Stderr, "csload: sent=%d ok=%d shed=%d+%d errors=%d degraded=%d distinct=%d hits=%d coalesced=%d p50=%.2fms p99=%.2fms p999=%.2fms\n",
			lr.Sent, lr.OK, lr.Shed429, lr.Shed503, lr.Errors, lr.Degraded, lr.DistinctQueries, lr.CacheHits, lr.Coalesced, lr.P50ms, lr.P99ms, lr.P999ms)
		if lr.Errors > 0 {
			return fmt.Errorf("%d request(s) failed with non-shed errors at %v qps", lr.Errors, rate)
		}
	}

	return writeReport(out, results)
}

// writeReport writes v as indented JSON to the -out path, or stdout.
func writeReport(out string, v any) error {
	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func readQueries(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var qs []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			qs = append(qs, line)
		}
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("%s holds no queries", path)
	}
	return qs, nil
}

// zipfPicker draws query indexes from a zipfian popularity distribution
// with exponent s=1.0: P(rank r) ∝ 1/r over the query log, queries.txt
// order = popularity order. The stdlib's rand.Zipf requires s > 1, so
// this inverts the harmonic CDF directly — exact, deterministic
// (seeded), and O(log n) per draw.
type zipfPicker struct {
	rng *rand.Rand
	cdf []float64
}

func newZipfPicker(n int, seed int64) *zipfPicker {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1.0 / float64(r+1)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipfPicker{rng: rand.New(rand.NewSource(seed)), cdf: cdf}
}

func (z *zipfPicker) pick() int {
	i := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// runLevel fires requests open-loop at the given rate for the given
// duration — cycling through the query log, or sampling it zipfian with
// zipf — and waits for every in-flight request before computing exact
// percentiles, overall and split by cache-hit vs cache-miss.
func runLevel(url string, qs []string, rate float64, duration time.Duration, k int, zipf bool) (levelResult, error) {
	lr := levelResult{QPS: rate}
	interval := time.Duration(float64(time.Second) / rate)
	client := &http.Client{Timeout: 30 * time.Second}
	var zp *zipfPicker
	if zipf {
		zp = newZipfPicker(len(qs), 1)
	}

	var (
		mu                   sync.Mutex
		latencies            []time.Duration
		hitLat, missLat      []time.Duration
		ok, s429, s503       atomic.Int64
		degraded, partial    atomic.Int64
		cacheHits, coalesced atomic.Int64
		ec                   errCounts
		wg                   sync.WaitGroup
	)
	distinct := make(map[int]bool)
	deadline := time.Now().Add(duration)
	next := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		qi := i % len(qs)
		if zp != nil {
			qi = zp.pick()
		}
		distinct[qi] = true
		q := qs[qi]
		lr.Sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			resp, err := client.Get(fmt.Sprintf("%s/search?q=%s&k=%d", url, neturl.QueryEscape(q), k))
			elapsed := time.Since(start)
			if err != nil {
				ec.transport(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var sr searchResponse
				if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
					ec.other.Add(1)
					return
				}
				if sr.Stats.Degraded {
					degraded.Add(1)
				}
				if len(sr.Stats.ShardErrors) > 0 {
					partial.Add(1)
				}
				if sr.Stats.ResultCacheHit {
					cacheHits.Add(1)
				}
				if sr.Stats.SingleFlightShared {
					coalesced.Add(1)
				}
				ok.Add(1)
				mu.Lock()
				latencies = append(latencies, elapsed)
				if sr.Stats.ResultCacheHit {
					hitLat = append(hitLat, elapsed)
				} else {
					missLat = append(missLat, elapsed)
				}
				mu.Unlock()
			case http.StatusTooManyRequests:
				s429.Add(1)
			case http.StatusServiceUnavailable:
				s503.Add(1)
			default:
				io.Copy(io.Discard, resp.Body)
				ec.status(resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	lr.OK, lr.Shed429, lr.Shed503 = ok.Load(), s429.Load(), s503.Load()
	lr.Errors, lr.Degraded, lr.Partial = ec.total(), degraded.Load(), partial.Load()
	lr.ConnErrors, lr.HTTP5xx, lr.ClientTimeouts = ec.conn.Load(), ec.http5xx.Load(), ec.timeout.Load()
	lr.DistinctQueries = int64(len(distinct))
	lr.CacheHits, lr.Coalesced = cacheHits.Load(), coalesced.Load()
	lr.CacheMisses = lr.OK - lr.CacheHits
	for _, s := range [][]time.Duration{latencies, hitLat, missLat} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	lr.P50ms, lr.P90ms = quantile(latencies, 0.50), quantile(latencies, 0.90)
	lr.P99ms, lr.P999ms = quantile(latencies, 0.99), quantile(latencies, 0.999)
	lr.HitP50ms, lr.HitP90ms = quantile(hitLat, 0.50), quantile(hitLat, 0.90)
	lr.HitP99ms, lr.HitP999ms = quantile(hitLat, 0.99), quantile(hitLat, 0.999)
	lr.MissP50ms, lr.MissP90ms = quantile(missLat, 0.50), quantile(missLat, 0.90)
	lr.MissP99ms, lr.MissP999ms = quantile(missLat, 0.99), quantile(missLat, 0.999)
	return lr, nil
}

// ingestVocab seeds the synthetic document generator: enough distinct
// terms that postings actually grow, few enough that terms repeat and
// the scorer has real collection statistics to update.
var ingestVocab = []string{
	"pancreas", "leukemia", "carcinoma", "therapy", "receptor",
	"kinase", "mutation", "biopsy", "lesion", "remission",
	"antibody", "protein", "genome", "clinical", "cohort",
}

// runIngest POSTs n synthetic documents to /index open-loop at the
// given arrival rate — like runLevel, requests fire on schedule rather
// than waiting for acks, so the measured latency includes any queueing
// inside the server's admission controller and WAL fsync path.
func runIngest(url string, n int, rate float64) (ingestResult, error) {
	ir := ingestResult{QPS: rate, FirstDoc: -1, LastDoc: -1}
	interval := time.Duration(float64(time.Second) / rate)
	client := &http.Client{Timeout: 30 * time.Second}
	rng := rand.New(rand.NewSource(1))

	docs := make([][]byte, n)
	for i := range docs {
		words := make([]string, 12)
		for j := range words {
			words[j] = ingestVocab[rng.Intn(len(ingestVocab))]
		}
		body, err := json.Marshal(indexRequest{
			Title:      fmt.Sprintf("synthetic document %d", i),
			Body:       strings.Join(words, " "),
			Predicates: []string{ingestVocab[rng.Intn(len(ingestVocab))]},
		})
		if err != nil {
			return ir, err
		}
		docs[i] = body
	}

	var (
		mu             sync.Mutex
		latencies      []time.Duration
		first, last    atomic.Int64
		ok, s429, s503 atomic.Int64
		ec             errCounts
		wg             sync.WaitGroup
	)
	first.Store(-1)
	last.Store(-1)
	next := time.Now()
	for i := 0; i < n; i++ {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		body := docs[i]
		ir.Sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			resp, err := client.Post(url+"/index", "application/json", strings.NewReader(string(body)))
			elapsed := time.Since(start)
			if err != nil {
				ec.transport(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var ack indexResponse
				if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
					ec.other.Add(1)
					return
				}
				ok.Add(1)
				id := int64(ack.DocID)
				for {
					f := first.Load()
					if f != -1 && f <= id {
						break
					}
					if first.CompareAndSwap(f, id) {
						break
					}
				}
				for {
					l := last.Load()
					if l >= id {
						break
					}
					if last.CompareAndSwap(l, id) {
						break
					}
				}
				mu.Lock()
				latencies = append(latencies, elapsed)
				mu.Unlock()
			case http.StatusTooManyRequests:
				s429.Add(1)
			case http.StatusServiceUnavailable:
				s503.Add(1)
			default:
				io.Copy(io.Discard, resp.Body)
				ec.status(resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	ir.OK, ir.Shed429, ir.Shed503, ir.Errors = ok.Load(), s429.Load(), s503.Load(), ec.total()
	ir.ConnErrors, ir.HTTP5xx, ir.ClientTimeouts = ec.conn.Load(), ec.http5xx.Load(), ec.timeout.Load()
	ir.FirstDoc, ir.LastDoc = int(first.Load()), int(last.Load())
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	ir.P50ms = quantile(latencies, 0.50)
	ir.P90ms = quantile(latencies, 0.90)
	ir.P99ms = quantile(latencies, 0.99)
	ir.P999ms = quantile(latencies, 0.999)
	return ir, nil
}

// chaosResult is the -chaos drill report.
type chaosResult struct {
	// Faults lists the injected fault kinds, in order.
	Faults []string `json:"faults"`
	// TargetShard is the shard the faults were armed against.
	TargetShard int `json:"target_shard"`
	// Queries/OK/Degraded/Attributed/Errors count the drill's searches:
	// every one must answer 200 (OK), flagged degraded, with the lost
	// shard attributed in shard_errors (attributed); errors must be 0.
	Queries    int64 `json:"queries"`
	OK         int64 `json:"ok"`
	Degraded   int64 `json:"degraded"`
	Attributed int64 `json:"attributed"`
	Errors     int64 `json:"errors"`
	// Recovered reports that after disarming, every breaker returned to
	// closed (probed successfully) within the recovery window.
	Recovered bool `json:"breakers_recovered"`
}

// healthz mirrors the subset of csserve's /healthz the drill reads.
type healthz struct {
	Status    string `json:"status"`
	NumShards int    `json:"num_shards"`
	Shards    []struct {
		Shard int    `json:"shard"`
		State string `json:"state"`
	} `json:"shards"`
}

// runChaos drives a fault drill against a live csserve started with
// -chaos: for each fault kind it arms the fault on one shard, fires
// queries — every one of which must still answer 200, flagged degraded,
// with the loss attributed to the faulted shard — then disarms and
// drives probe queries until the shard's breaker closes again. Any
// hard failure (non-2xx besides shed, transport error) fails the drill.
func runChaos(url string, qs []string, k int) (chaosResult, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	cr := chaosResult{Faults: []string{"corrupt", "panic"}}

	var h healthz
	if err := getChaosJSON(client, url+"/healthz", &h); err != nil {
		return cr, fmt.Errorf("healthz: %w", err)
	}
	if h.NumShards < 2 {
		return cr, fmt.Errorf("chaos drill needs ≥ 2 shards (one to fault, the rest to answer); server has %d", h.NumShards)
	}
	cr.TargetShard = 1

	arm := func(body string) error {
		resp, err := client.Post(url+"/chaosz", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("chaosz: status %d: %s (is csserve running with -chaos?)", resp.StatusCode, strings.TrimSpace(string(b)))
		}
		io.Copy(io.Discard, resp.Body)
		return nil
	}

	for _, fault := range cr.Faults {
		if err := arm(fmt.Sprintf(`{"shard": %d, "%s": true}`, cr.TargetShard, fault)); err != nil {
			return cr, err
		}
		for i := 0; i < 25; i++ {
			q := qs[i%len(qs)]
			cr.Queries++
			resp, err := client.Get(fmt.Sprintf("%s/search?q=%s&k=%d", url, neturl.QueryEscape(q), k))
			if err != nil {
				cr.Errors++
				continue
			}
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				cr.Errors++
				continue
			}
			var sr searchResponse
			err = json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if err != nil {
				cr.Errors++
				continue
			}
			cr.OK++
			if sr.Stats.Degraded {
				cr.Degraded++
			}
			for _, se := range sr.Stats.ShardErrors {
				if se.Shard == cr.TargetShard {
					cr.Attributed++
					break
				}
			}
		}
		if err := arm(`{"disarm": true}`); err != nil {
			return cr, err
		}
		// Recovery: the open breaker needs its backoff to expire and then a
		// probe query to succeed, so keep poking until every shard reports
		// closed (or the window expires). The probes rotate through the
		// log: a clean answer is result-cached, and a cached hit never
		// reaches the shards, so repeating one query would stop probing
		// the breaker as soon as it had recovered once.
		cr.Recovered = false
		deadline := time.Now().Add(15 * time.Second)
		for probe := 0; time.Now().Before(deadline); probe++ {
			if resp, err := client.Get(fmt.Sprintf("%s/search?q=%s&k=%d", url, neturl.QueryEscape(qs[probe%len(qs)]), k)); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err := getChaosJSON(client, url+"/healthz", &h); err == nil {
				closed := 0
				for _, s := range h.Shards {
					if s.State == "closed" {
						closed++
					}
				}
				if closed == h.NumShards {
					cr.Recovered = true
					break
				}
			}
			time.Sleep(200 * time.Millisecond)
		}
		if !cr.Recovered {
			return cr, fmt.Errorf("breakers did not all close within 15s of disarming %s fault", fault)
		}
	}

	switch {
	case cr.Errors > 0:
		return cr, fmt.Errorf("%d of %d chaos queries failed hard (want 0: every query must answer degraded)", cr.Errors, cr.Queries)
	case cr.Degraded == 0:
		return cr, fmt.Errorf("no chaos query came back degraded — faults are not reaching the query path")
	case cr.Attributed == 0:
		return cr, fmt.Errorf("no degraded response attributed the loss to shard %d", cr.TargetShard)
	}
	return cr, nil
}

// getChaosJSON fetches a JSON endpoint, accepting 503 (a degraded
// /healthz still carries the body the drill reads).
func getChaosJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// quantile returns the exact q-quantile of sorted samples, in
// milliseconds, by the nearest-rank definition: the smallest sample
// such that at least q·n samples are ≤ it, i.e. index ⌈q·n⌉-1. The
// earlier ⌊q·n⌋ indexing was off by one — most visibly at small n,
// where p999 of 100 samples read past the intended rank, and p50 of an
// even n returned the (n/2+1)-th sample instead of the n/2-th.
func quantile(sorted []time.Duration, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// compareServers fetches every query from both servers sequentially and
// fails on the first hit-list divergence (doc_id or score). Shed
// responses are retried a few times — equivalence needs an answer, not
// an admission decision.
func compareServers(urlA, urlB string, qs []string, k int) (int, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	fetch := func(url, q string) (searchResponse, error) {
		var sr searchResponse
		for attempt := 0; ; attempt++ {
			resp, err := client.Get(fmt.Sprintf("%s/search?q=%s&k=%d", url, neturl.QueryEscape(q), k))
			if err != nil {
				return sr, err
			}
			if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if attempt >= 5 {
					return sr, fmt.Errorf("%s: shed %d times for %q", url, attempt+1, q)
				}
				time.Sleep(50 * time.Millisecond)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				return sr, fmt.Errorf("%s: status %d for %q: %s", url, resp.StatusCode, q, strings.TrimSpace(string(body)))
			}
			err = json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			return sr, err
		}
	}
	// Two rounds over the log: round 1 populates any result cache, round
	// 2 compares cached answers against the other server's fresh (or
	// equally cached) execution — so a cache serving anything but the
	// bit-identical ranking fails the equivalence check, not just a
	// sharding bug.
	for round := 1; round <= 2; round++ {
		for _, q := range qs {
			a, err := fetch(urlA, q)
			if err != nil {
				return 0, err
			}
			b, err := fetch(urlB, q)
			if err != nil {
				return 0, err
			}
			if len(a.Hits) != len(b.Hits) {
				return 0, fmt.Errorf("%q (round %d): %d hits on %s, %d on %s", q, round, len(a.Hits), urlA, len(b.Hits), urlB)
			}
			for i := range a.Hits {
				if a.Hits[i].DocID != b.Hits[i].DocID || a.Hits[i].Score != b.Hits[i].Score {
					return 0, fmt.Errorf("%q (round %d) rank %d: (#%d, %v) on %s but (#%d, %v) on %s",
						q, round, i, a.Hits[i].DocID, a.Hits[i].Score, urlA, b.Hits[i].DocID, b.Hits[i].Score, urlB)
				}
			}
		}
	}
	return 2 * len(qs), nil
}
