package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"csrank"
)

// searchResponse is the /search wire format. Hits and Stats are the
// library's own types — their JSON tags are the wire contract, so the
// server needs no shadow structs.
type searchResponse struct {
	Query  string         `json:"query"`
	K      int            `json:"k"`
	Hits   []csrank.Hit   `json:"hits"`
	Stats  csrank.Stats   `json:"stats"`
	Shards []csrank.Stats `json:"shards,omitempty"`
}

// errorResponse is the wire format for every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// indexRequest is the POST /index wire format: one document to add to
// the live collection.
type indexRequest struct {
	Title      string   `json:"title"`
	Body       string   `json:"body"`
	Predicates []string `json:"predicates"`
}

// indexResponse acknowledges a durably logged document.
type indexResponse struct {
	// DocID is the document's assigned global number.
	DocID int `json:"doc_id"`
	// Pending is how many acknowledged documents await compaction.
	Pending int `json:"pending"`
}

// chaosRequest is the POST /chaosz wire format (only served with
// -chaos): arm one fault against one shard, or disarm everything.
type chaosRequest struct {
	// Shard is the target shard index (ignored with Disarm).
	Shard int `json:"shard"`
	// DelayMs stalls each query phase on the shard by this long.
	DelayMs int `json:"delay_ms"`
	// Panic crashes the shard's query worker.
	Panic bool `json:"panic"`
	// Corrupt simulates a corrupt-block read escaping decode.
	Corrupt bool `json:"corrupt"`
	// Disarm removes every armed fault.
	Disarm bool `json:"disarm"`
}

// healthzResponse is the /healthz wire format. Status is "ok" when the
// cluster can serve within its MinShards policy (HTTP 200), "degraded"
// otherwise (HTTP 503, so load balancers rotate the instance out).
type healthzResponse struct {
	Status            string               `json:"status"`
	NumShards         int                  `json:"num_shards"`
	AvailableShards   int                  `json:"available_shards"`
	MinShards         int                  `json:"min_shards"`
	QuarantinedBlocks int64                `json:"quarantined_blocks"`
	Shards            []csrank.ShardHealth `json:"shards"`
}

// statszResponse is the /statsz wire format: cumulative counters plus
// the latency distribution of admitted searches.
type statszResponse struct {
	NumDocs     int      `json:"num_docs"`
	NumShards   int      `json:"num_shards"`
	Generations []uint64 `json:"generations"`
	// Catalogs is each shard's view catalog: views serving, views
	// quarantined by a failed first-use check, and why a views.gob did
	// not open.
	Catalogs []csrank.CatalogStatus `json:"catalogs"`

	Requests      int64 `json:"requests"`
	OK            int64 `json:"ok"`
	BadRequests   int64 `json:"bad_requests"`
	ShedQueue     int64 `json:"shed_queue_full"`
	ShedTimeout   int64 `json:"shed_queue_timeout"`
	ShedUnhealthy int64 `json:"shed_unhealthy"`
	Errors        int64 `json:"errors"`
	Degraded      int64 `json:"degraded"`
	// PartialResults counts 200 responses missing at least one shard
	// (a subset of Degraded).
	PartialResults    int64 `json:"partial_results"`
	QuarantinedBlocks int64 `json:"quarantined_blocks"`
	PrunedDocs        int64 `json:"pruned_docs"`

	IngestEnabled  bool  `json:"ingest_enabled"`
	IngestRequests int64 `json:"ingest_requests"`
	IndexedDocs    int64 `json:"indexed_docs"`
	IngestErrors   int64 `json:"ingest_errors"`
	PendingDocs    int   `json:"pending_docs"`
	// CompactError is the most recent background-compaction failure
	// (omitted after a success). A failed compaction loses no document:
	// pending_docs keeps growing until one succeeds.
	CompactError string `json:"compact_error,omitempty"`

	Inflight   int `json:"inflight"`
	QueueDepth int `json:"queue_depth"`

	// ResultCache is the serving-layer result cache (hits, misses,
	// generation invalidations, single-flight coalescing); BlockCache
	// sums the per-shard decoded-block caches of mapped indexes.
	ResultCache csrank.ResultCacheStats `json:"result_cache"`
	BlockCache  csrank.BlockCacheStats  `json:"block_cache"`

	LatencyP50  float64 `json:"latency_p50_ms"`
	LatencyP90  float64 `json:"latency_p90_ms"`
	LatencyP99  float64 `json:"latency_p99_ms"`
	LatencyP999 float64 `json:"latency_p999_ms"`
}

// latencyHist is a lock-free log₂-bucketed latency histogram: bucket i
// holds samples in [2^(i-1), 2^i) microseconds. 48 buckets cover ~9
// years, so the top bucket never saturates in practice. Percentiles
// read the upper bound of the bucket the rank falls into — at most 2×
// off, which is plenty for an operator dashboard (the load harness
// measures exact percentiles client-side).
type latencyHist struct {
	counts [48]atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	us := uint64(d.Microseconds())
	i := bits.Len64(us) // 0 for 0µs, else ⌊log₂⌋+1
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i].Add(1)
}

// quantile returns the q-quantile in milliseconds (0 when empty).
func (h *latencyHist) quantile(q float64) float64 {
	var counts [48]int64
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	seen := int64(0)
	for i, c := range counts {
		seen += c
		if seen > rank {
			return float64(uint64(1)<<uint(i)) / 1000.0
		}
	}
	return float64(uint64(1)<<47) / 1000.0
}

// server serves context-sensitive search over HTTP with admission
// control. One server fronts one ShardedEngine (a single engine is a
// one-shard cluster), so single and sharded data directories share
// every code path.
type server struct {
	eng      *csrank.ShardedEngine
	adm      *admission
	defaultK int
	timeout  time.Duration // per-request deadline covering queue wait + execution
	perShard bool          // include per-shard stats in responses
	ingest   bool          // accept POST /index writes
	chaos    bool          // serve POST /chaosz fault injection

	bufs sync.Pool // *bytes.Buffer, pooled response encoding

	requests       atomic.Int64
	ok             atomic.Int64
	badRequests    atomic.Int64
	shedQueue      atomic.Int64
	shedTimeout    atomic.Int64
	shedUnhealthy  atomic.Int64
	errCount       atomic.Int64
	degraded       atomic.Int64
	partialResults atomic.Int64
	prunedDocs     atomic.Int64
	ingestRequests atomic.Int64
	indexedDocs    atomic.Int64
	ingestErrors   atomic.Int64
	hist           latencyHist
}

func newServer(eng *csrank.ShardedEngine, adm *admission, defaultK int, timeout time.Duration, perShard, ingest bool) *server {
	return &server{
		eng:      eng,
		adm:      adm,
		defaultK: defaultK,
		timeout:  timeout,
		perShard: perShard,
		ingest:   ingest,
		bufs:     sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/index", s.handleIndex)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/chaosz", s.handleChaosz)
	return mux
}

// writeJSON encodes v through a pooled buffer so a slow client can
// never hold a half-encoded response (and encoding allocations are
// amortized), then writes it with the given status.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := s.bufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer s.bufs.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, `{"error":"encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q := r.URL.Query().Get("q")
	if q == "" {
		s.badRequests.Add(1)
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing q parameter"})
		return
	}
	k := s.defaultK
	if ks := r.URL.Query().Get("k"); ks != "" {
		n, err := strconv.Atoi(ks)
		if err != nil {
			s.badRequests.Add(1)
			s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad k parameter"})
			return
		}
		k = n
	}

	// Shed before queuing when too few shards are healthy to answer
	// within policy: the fan-out would fail anyway, so spend nothing on
	// it and give the load balancer its 503 immediately.
	if !s.eng.CanServe() {
		s.shedUnhealthy.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "too few healthy shards (circuit breakers open)"})
		return
	}

	// The deadline covers queue wait AND execution: a request that
	// queued for most of its budget gets only the remainder to run,
	// degrading (flagged) rather than overshooting the SLO.
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}

	// The admission gate is passed to the engine rather than taken here:
	// result-cache hits and single-flight followers answer without a real
	// shard fan-out, so they must not spend (or wait for) an execution
	// slot — under a hot cache the admission queue is reserved for the
	// queries that actually cost something.
	gate := func(ctx context.Context) (func(), error) {
		if err := s.adm.acquire(ctx); err != nil {
			return nil, err
		}
		return s.adm.release, nil
	}
	start := time.Now()
	hits, st, perShard, err := s.eng.SearchGated(ctx, q, k, gate)
	s.hist.observe(time.Since(start))
	if err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			s.shedQueue.Add(1)
			s.writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		case errors.Is(err, errQueueTimeout), errors.Is(err, context.DeadlineExceeded):
			s.shedTimeout.Add(1)
			s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		case errors.Is(err, context.Canceled), errors.Is(err, csrank.ErrTooFewShards):
			s.errCount.Add(1)
			s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		default:
			// Anything else at this point is a malformed query: the engine's
			// deadline path degrades instead of failing.
			s.badRequests.Add(1)
			s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		}
		return
	}
	s.ok.Add(1)
	if st.Degraded {
		s.degraded.Add(1)
	}
	if len(st.ShardErrors) > 0 {
		s.partialResults.Add(1)
	}
	s.prunedDocs.Add(st.PrunedDocs)
	resp := searchResponse{Query: q, K: k, Hits: hits, Stats: st}
	if s.perShard {
		resp.Shards = perShard
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// admit acquires an execution slot for the request, writing the shed
// response (429 queue full, 503 saturated or gone) on failure. On true
// the caller must release().
func (s *server) admit(ctx context.Context, w http.ResponseWriter) bool {
	err := s.adm.acquire(ctx)
	if err == nil {
		return true
	}
	switch {
	case errors.Is(err, errQueueFull):
		s.shedQueue.Add(1)
		s.writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, errQueueTimeout), errors.Is(err, context.DeadlineExceeded):
		s.shedTimeout.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: errQueueTimeout.Error()})
	default: // client went away while queued
		s.errCount.Add(1)
		s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	}
	return false
}

// handleIndex adds one document to the live collection. Writes go
// through the same admission controller as searches, so a write surge
// sheds at the door instead of starving queries (and vice versa). The
// 200 response means the document is durably logged — fsynced — and
// will be searchable within one refresh interval.
func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	s.ingestRequests.Add(1)
	if r.Method != http.MethodPost {
		s.badRequests.Add(1)
		s.writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	if !s.ingest {
		s.badRequests.Add(1)
		s.writeJSON(w, http.StatusForbidden, errorResponse{Error: "ingestion disabled (start csserve with -ingest)"})
		return
	}
	var req indexRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		s.badRequests.Add(1)
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad document: " + err.Error()})
		return
	}
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	if !s.admit(ctx, w) {
		return
	}
	defer s.adm.release()

	id, err := s.eng.Add(csrank.Document{Title: req.Title, Body: req.Body, Predicates: req.Predicates})
	if err != nil {
		s.ingestErrors.Add(1)
		s.writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.indexedDocs.Add(1)
	s.writeJSON(w, http.StatusOK, indexResponse{DocID: id, Pending: s.eng.Pending()})
}

// statsz assembles the current counters — shared by the /statsz handler
// and the final flush graceful shutdown logs.
func (s *server) statsz() statszResponse {
	var compactErr string
	if err := s.eng.CompactErr(); err != nil {
		compactErr = err.Error()
	}
	return statszResponse{
		NumDocs:     s.eng.NumDocs(),
		NumShards:   s.eng.NumShards(),
		Generations: s.eng.Generations(),
		Catalogs:    s.eng.Catalogs(),

		Requests:          s.requests.Load(),
		OK:                s.ok.Load(),
		BadRequests:       s.badRequests.Load(),
		ShedQueue:         s.shedQueue.Load(),
		ShedTimeout:       s.shedTimeout.Load(),
		ShedUnhealthy:     s.shedUnhealthy.Load(),
		Errors:            s.errCount.Load(),
		Degraded:          s.degraded.Load(),
		PartialResults:    s.partialResults.Load(),
		QuarantinedBlocks: s.eng.QuarantinedBlocks(),
		PrunedDocs:        s.prunedDocs.Load(),

		IngestEnabled:  s.ingest,
		IngestRequests: s.ingestRequests.Load(),
		IndexedDocs:    s.indexedDocs.Load(),
		IngestErrors:   s.ingestErrors.Load(),
		PendingDocs:    s.eng.Pending(),
		CompactError:   compactErr,

		Inflight:    s.adm.inflight(),
		QueueDepth:  s.adm.queueDepth(),
		ResultCache: s.eng.ResultCacheStats(),
		BlockCache:  s.eng.BlockCacheStats(),
		LatencyP50:  s.hist.quantile(0.50),
		LatencyP90:  s.hist.quantile(0.90),
		LatencyP99:  s.hist.quantile(0.99),
		LatencyP999: s.hist.quantile(0.999),
	}
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.statsz())
}

// handleHealthz reports per-shard breaker states and overall
// serveability: 200 "ok" while at least max(1, MinShards) shards are
// available, 503 "degraded" otherwise — the signal a load balancer
// uses to rotate the instance out until breakers recover.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.eng.Health()
	resp := healthzResponse{
		Status:            "ok",
		NumShards:         h.NumShards,
		AvailableShards:   h.AvailableShards,
		MinShards:         h.MinShards,
		QuarantinedBlocks: h.QuarantinedBlocks,
		Shards:            h.Shards,
	}
	status := http.StatusOK
	if !h.Healthy() {
		resp.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, resp)
}

// handleChaosz arms or disarms fault injection on one shard — only when
// the server was started with -chaos (403 otherwise, so a production
// instance cannot be faulted remotely).
func (s *server) handleChaosz(w http.ResponseWriter, r *http.Request) {
	if !s.chaos {
		s.writeJSON(w, http.StatusForbidden, errorResponse{Error: "fault injection disabled (start csserve with -chaos)"})
		return
	}
	if r.Method != http.MethodPost {
		s.writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req chaosRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad fault: " + err.Error()})
		return
	}
	if req.Disarm {
		s.eng.DisarmFaults()
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "disarmed"})
		return
	}
	if err := s.eng.ArmFault(req.Shard, time.Duration(req.DelayMs)*time.Millisecond, req.Panic, req.Corrupt); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "armed"})
}
