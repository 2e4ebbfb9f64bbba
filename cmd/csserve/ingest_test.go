package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"csrank"
)

// TestAdmissionQueueFairness: a freed slot must be handed to the
// longest-queued waiter — FIFO — never raced. Regression test for the
// fast-path steal: the old channel-based controller let any new arrival
// grab a freed slot ahead of every queued waiter, starving the queue
// under sustained saturation.
func TestAdmissionQueueFairness(t *testing.T) {
	adm := newAdmission(1, 8, 0)
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const n = 5
	order := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		before := adm.queueDepth()
		go func() {
			if err := adm.acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			adm.release()
		}()
		// Pin arrival order: wait until this waiter is actually queued
		// before launching the next.
		deadline := time.Now().Add(time.Second)
		for adm.queueDepth() == before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if adm.queueDepth() != before+1 {
			t.Fatalf("waiter %d never queued", i)
		}
	}
	adm.release() // start the chain: each waiter hands to the next
	for i := 0; i < n; i++ {
		select {
		case got := <-order:
			if got != i {
				t.Fatalf("slot went to waiter %d before waiter %d", got, i)
			}
		case <-time.After(time.Second):
			t.Fatalf("waiter %d never admitted", i)
		}
	}
	if adm.inflight() != 0 || adm.queueDepth() != 0 {
		t.Fatalf("inflight=%d queue=%d after drain", adm.inflight(), adm.queueDepth())
	}
}

// TestAdmissionNoStealWhileQueued: while a waiter is queued, a brand-new
// arrival must not be admitted past it — even right after a release.
func TestAdmissionNoStealWhileQueued(t *testing.T) {
	adm := newAdmission(1, 4, 0)
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	granted := make(chan struct{})
	go func() {
		if err := adm.acquire(context.Background()); err != nil {
			t.Errorf("queued waiter: %v", err)
		}
		close(granted) // holds the slot until the test ends
	}()
	deadline := time.Now().Add(time.Second)
	for adm.queueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	adm.release() // must go to the queued waiter
	<-granted

	// The waiter holds the only slot; a late arrival must wait its turn
	// (and here time out), not sneak in.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := adm.acquire(ctx); err == nil {
		t.Fatal("late arrival admitted while the slot was held via handoff")
	}
	adm.release()
	if adm.inflight() != 0 {
		t.Fatalf("inflight=%d after all releases", adm.inflight())
	}
}

// TestAdmissionStressAccounting hammers the controller with acquires
// that race timeouts against releases — the abandoned-grant window —
// and checks no slot is ever leaked or double-counted.
func TestAdmissionStressAccounting(t *testing.T) {
	adm := newAdmission(2, 8, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := adm.acquire(context.Background()); err == nil {
					adm.release()
				}
			}
		}()
	}
	wg.Wait()
	if adm.inflight() != 0 || adm.queueDepth() != 0 {
		t.Fatalf("inflight=%d queue=%d after stress", adm.inflight(), adm.queueDepth())
	}
	// Both slots must still be grantable.
	for i := 0; i < 2; i++ {
		if err := adm.acquire(context.Background()); err != nil {
			t.Fatalf("slot %d leaked: %v", i, err)
		}
	}
	adm.release()
	adm.release()
}

// liveTestServer saves a sharded engine and reopens it writable.
func liveTestServer(t *testing.T, ingest bool) (*server, *httptest.Server) {
	t.Helper()
	eng := buildTestEngine(t, 2)
	dir := t.TempDir()
	if err := eng.Save(dir); err != nil {
		t.Fatal(err)
	}
	live, err := csrank.OpenLive(dir, csrank.BuildOptions{}, csrank.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	srv := newServer(live, newAdmission(4, 16, time.Second), 10, 0, false, ingest)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body, v any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return resp.StatusCode
}

// TestIndexEndpoint: POST /index durably adds a document that the very
// next /search can rank, and the statsz ingest counters track it.
func TestIndexEndpoint(t *testing.T) {
	srv, ts := liveTestServer(t, true)

	var ack indexResponse
	code := postJSON(t, ts, "/index", indexRequest{
		Title:      "freshly added",
		Body:       "zyzzyva pancreas follow-up",
		Predicates: []string{"neoplasms"},
	}, &ack)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ack.DocID != 300 { // buildTestEngine indexes 300 documents
		t.Fatalf("doc_id %d, want 300", ack.DocID)
	}
	if ack.Pending != 1 {
		t.Fatalf("pending %d, want 1", ack.Pending)
	}
	var got searchResponse
	if code := getJSON(t, ts, "/search?q=zyzzyva", &got); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	if len(got.Hits) != 1 || got.Hits[0].DocID != 300 || got.Hits[0].Title != "freshly added" {
		t.Fatalf("added document not served: %+v", got.Hits)
	}

	var bad errorResponse
	resp, err := ts.Client().Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /index: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	r2, err := ts.Client().Post(ts.URL+"/index", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", r2.StatusCode)
	}
	r2.Body.Close()

	var st statszResponse
	if code := getJSON(t, ts, "/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	if !st.IngestEnabled || st.IndexedDocs != 1 || st.IngestRequests != 3 || st.PendingDocs != 1 {
		t.Fatalf("ingest counters %+v", st)
	}
	if st.NumDocs != 301 {
		t.Fatalf("num_docs %d, want 301", st.NumDocs)
	}
	_ = bad
	_ = srv
}

// TestCompactionFailureReachesStatsz: a background compaction that
// cannot write the next index generation is reported on /statsz as
// compact_error, while the acknowledged document stays pending.
func TestCompactionFailureReachesStatsz(t *testing.T) {
	dir := t.TempDir()
	if err := buildTestEngine(t, 2).Save(dir); err != nil {
		t.Fatal(err)
	}
	live, err := csrank.OpenLive(dir, csrank.BuildOptions{}, csrank.IngestOptions{CompactThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		live.Close()
		// Close has waited for the compaction goroutine, which may still
		// be returning; let it go, so TestSIGTERMClosesEngine's check for
		// leaked ingestion goroutines sees none of this test's.
		buf := make([]byte, 1<<20)
		for i := 0; i < 100 && strings.Contains(string(buf[:runtime.Stack(buf, true)]), "segment.(*Ingester)"); i++ {
			time.Sleep(10 * time.Millisecond)
		}
	})
	// A non-empty directory where shard 0's generation-1 index file goes:
	// the compaction's write of that file fails.
	if err := os.MkdirAll(filepath.Join(dir, "shard-000", "index.000001.gob", "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv := newServer(live, newAdmission(4, 16, time.Second), 10, 0, false, true)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	var ack indexResponse
	if code := postJSON(t, ts, "/index", indexRequest{Title: "t", Body: "zyzzyva"}, &ack); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st map[string]any
		if code := getJSON(t, ts, "/statsz", &st); code != http.StatusOK {
			t.Fatalf("statsz status %d", code)
		}
		if msg, _ := st["compact_error"].(string); msg != "" {
			if !strings.Contains(msg, "shard 0") {
				t.Fatalf("compact_error %q does not name the shard", msg)
			}
			if st["pending_docs"] != float64(1) {
				t.Fatalf("pending_docs %v after a failed compaction, want 1", st["pending_docs"])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compact_error on /statsz after a failed compaction: %v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthzGenerationAfterRestart: csserve restarted on a live
// directory compacted twice reports every shard at live.json's
// generation on /healthz, read-only and with -ingest alike.
func TestHealthzGenerationAfterRestart(t *testing.T) {
	dir := t.TempDir()
	if err := buildTestEngine(t, 2).Save(dir); err != nil {
		t.Fatal(err)
	}
	live, err := csrank.OpenLive(dir, csrank.BuildOptions{}, csrank.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 5; i++ {
			if _, err := live.Add(csrank.Document{Title: "added", Body: fmt.Sprintf("pancreas follow-up %d", i), Predicates: []string{"neoplasms"}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := live.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "live.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Gen uint64 `json:"gen"`
	}
	if err := json.Unmarshal(data, &committed); err != nil || committed.Gen != 2 {
		t.Fatalf("live.json %s (%v), want generation 2", data, err)
	}
	for _, ingest := range []bool{false, true} {
		eng, err := openEngine(dir, csrank.BuildOptions{}, ingest, 0, 0)
		if err != nil {
			t.Fatalf("ingest=%v: restart: %v", ingest, err)
		}
		ts := httptest.NewServer(newServer(eng, newAdmission(4, 16, time.Second), 10, 0, false, ingest).routes())
		var h healthzResponse
		code := getJSON(t, ts, "/healthz", &h)
		ts.Close()
		eng.Close()
		if code != http.StatusOK || len(h.Shards) != 2 {
			t.Fatalf("ingest=%v: healthz %d %+v", ingest, code, h)
		}
		for _, sh := range h.Shards {
			if sh.Generation != committed.Gen {
				t.Fatalf("ingest=%v: shard %d serves generation %d, live.json says %d", ingest, sh.Shard, sh.Generation, committed.Gen)
			}
		}
	}
}

// TestIndexEndpointDisabled: without -ingest the endpoint refuses
// writes instead of panicking or silently dropping them.
func TestIndexEndpointDisabled(t *testing.T) {
	_, ts := liveTestServer(t, false)
	var bad errorResponse
	code := postJSON(t, ts, "/index", indexRequest{Title: "x"}, &bad)
	if code != http.StatusForbidden {
		t.Fatalf("status %d, want 403", code)
	}
}

// jsonKeys returns the sorted top-level keys of v's JSON encoding.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func assertKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s schema drifted:\n got  %v\n want %v", what, got, want)
	}
}

// TestWireSchemaStability pins the exact top-level key sets of every
// response the server emits, so a field rename or deletion — which
// breaks deployed clients and dashboards — fails loudly here instead of
// silently shipping.
func TestWireSchemaStability(t *testing.T) {
	// compact_error is omitempty: set it so the full key set is pinned.
	assertKeys(t, "statsz", jsonKeys(t, statszResponse{CompactError: "x"}), []string{
		"bad_requests", "block_cache", "catalogs", "compact_error", "degraded", "errors", "generations",
		"indexed_docs", "inflight", "ingest_enabled", "ingest_errors", "ingest_requests",
		"latency_p50_ms", "latency_p90_ms", "latency_p999_ms", "latency_p99_ms",
		"num_docs", "num_shards", "ok", "partial_results", "pending_docs", "pruned_docs",
		"quarantined_blocks", "queue_depth", "requests", "result_cache",
		"shed_queue_full", "shed_queue_timeout", "shed_unhealthy",
	})
	// catalog_error is omitempty: set it so the full key set is pinned.
	assertKeys(t, "statsz catalogs", jsonKeys(t, csrank.CatalogStatus{OpenError: "x"}), []string{
		"catalog_error", "views", "views_quarantined",
	})
	assertKeys(t, "search", jsonKeys(t, searchResponse{Shards: []csrank.Stats{{}}}), []string{
		"hits", "k", "query", "shards", "stats",
	})
	// degraded_reason, shard_errors and single_flight_shared are
	// omitempty: set them so the full stats key set is pinned.
	assertKeys(t, "stats", jsonKeys(t, csrank.Stats{DegradedReason: "x", ShardErrors: []csrank.ShardError{{}}, SingleFlightShared: true}), []string{
		"context_size", "degraded", "degraded_reason", "elapsed_ns",
		"plan", "pruned_containers", "pruned_docs", "result_cache_hit",
		"result_size", "shard_errors", "single_flight_shared", "used_view",
	})
	assertKeys(t, "shard error", jsonKeys(t, csrank.ShardError{}), []string{
		"error", "kind", "shard",
	})
	assertKeys(t, "healthz", jsonKeys(t, healthzResponse{Shards: []csrank.ShardHealth{{}}}), []string{
		"available_shards", "min_shards", "num_shards", "quarantined_blocks",
		"shards", "status",
	})
	assertKeys(t, "shard health", jsonKeys(t, csrank.ShardHealth{}), []string{
		"consecutive_failures", "generation", "recoveries", "retry_in_ms", "shard", "state", "trips",
	})
	assertKeys(t, "chaos request", jsonKeys(t, chaosRequest{}), []string{
		"corrupt", "delay_ms", "disarm", "panic", "shard",
	})
	assertKeys(t, "hit", jsonKeys(t, csrank.Hit{}), []string{
		"doc_id", "score", "title",
	})
	assertKeys(t, "index ack", jsonKeys(t, indexResponse{}), []string{
		"doc_id", "pending",
	})
	assertKeys(t, "error", jsonKeys(t, errorResponse{}), []string{"error"})
}
