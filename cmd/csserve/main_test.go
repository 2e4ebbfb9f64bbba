package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"csrank"
	"csrank/internal/snapshot"
	"csrank/internal/views"
)

// buildTestEngine builds a small sharded engine through the public API.
func buildTestEngine(t *testing.T, shards int) *csrank.ShardedEngine {
	t.Helper()
	b := csrank.NewBuilder()
	for i := 0; i < 300; i++ {
		pred := "neoplasms"
		if i%3 == 0 {
			pred = "digestive_system"
		}
		b.Add(csrank.Document{
			Title:      fmt.Sprintf("doc %d", i),
			Body:       fmt.Sprintf("pancreas leukemia study cohort %d", i%7),
			Predicates: []string{pred},
		})
	}
	eng, err := b.BuildSharded(shards, csrank.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return resp.StatusCode
}

func TestSearchEndpoint(t *testing.T) {
	eng := buildTestEngine(t, 3)
	srv := newServer(eng, newAdmission(4, 16, time.Second), 10, 0, true, false)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	var got searchResponse
	code := getJSON(t, ts, "/search?q=pancreas+leukemia+%7C+digestive_system&k=5", &got)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Hits) != 5 || got.K != 5 {
		t.Fatalf("hits=%d k=%d", len(got.Hits), got.K)
	}
	if len(got.Shards) != 3 {
		t.Fatalf("%d per-shard reports, want 3", len(got.Shards))
	}
	// The HTTP path must rank exactly as the library does.
	want, _, err := eng.Search("pancreas leukemia | digestive_system", 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got.Hits[i] != want[i] {
			t.Fatalf("rank %d: %+v over HTTP, want %+v", i, got.Hits[i], want[i])
		}
	}

	var bad errorResponse
	if code := getJSON(t, ts, "/search?q=", &bad); code != http.StatusBadRequest {
		t.Fatalf("empty q: status %d", code)
	}
	if code := getJSON(t, ts, "/search?q=x&k=zebra", &bad); code != http.StatusBadRequest {
		t.Fatalf("bad k: status %d", code)
	}

	var st statszResponse
	if code := getJSON(t, ts, "/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	if st.Requests != 3 || st.OK != 1 || st.BadRequests != 2 {
		t.Fatalf("statsz counters %+v", st)
	}
	if st.NumShards != 3 || st.NumDocs != 300 {
		t.Fatalf("statsz topology %+v", st)
	}
	if st.LatencyP50 <= 0 {
		t.Fatalf("p50 = %v after a served search", st.LatencyP50)
	}
}

// TestBadQueryAnswers400AndKeepsShardsHealthy: a query with no
// indexable keyword is the client's fault. It answers 400, never trips a
// circuit breaker, and a valid query afterwards is still served.
func TestBadQueryAnswers400AndKeepsShardsHealthy(t *testing.T) {
	for _, shards := range []int{1, 4} {
		srv := newServer(buildTestEngine(t, shards), newAdmission(4, 16, time.Second), 10, 0, false, false)
		ts := httptest.NewServer(srv.routes())
		for i := 0; i < 5; i++ {
			var bad errorResponse
			if code := getJSON(t, ts, "/search?q=the+of+%7C+digestive_system", &bad); code != http.StatusBadRequest {
				t.Fatalf("shards=%d query %d: status %d (%s), want 400", shards, i, code, bad.Error)
			}
		}
		var h healthzResponse
		if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "ok" || h.AvailableShards != shards {
			t.Fatalf("shards=%d: healthz %d %+v after bad queries", shards, code, h)
		}
		var got searchResponse
		if code := getJSON(t, ts, "/search?q=pancreas+%7C+digestive_system", &got); code != http.StatusOK || len(got.Hits) == 0 {
			t.Fatalf("shards=%d: valid query after bad ones: status %d, %d hits", shards, code, len(got.Hits))
		}
		ts.Close()
	}
}

// TestAdmissionShedding saturates the slot pool and checks both shed
// paths: 429 when the queue is full, 503 when the queue wait times out.
func TestAdmissionShedding(t *testing.T) {
	adm := newAdmission(1, 1, 20*time.Millisecond)

	// Hold the only slot.
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One waiter fills the queue, then times out with errQueueTimeout.
	var wg sync.WaitGroup
	wg.Add(1)
	queued := make(chan struct{})
	go func() {
		defer wg.Done()
		close(queued)
		if err := adm.acquire(context.Background()); err != errQueueTimeout {
			t.Errorf("queued acquire: %v, want errQueueTimeout", err)
		}
	}()
	<-queued
	// Give the waiter time to enter the queue, then overflow it.
	deadline := time.Now().Add(time.Second)
	for adm.queueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := adm.acquire(context.Background()); err != errQueueFull {
		t.Fatalf("overflow acquire: %v, want errQueueFull", err)
	}
	wg.Wait()
	adm.release()

	// After release the pool is free again.
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	adm.release()
}

// TestServerOverloadResponses drives the HTTP layer into overload and
// checks the status codes and counters.
func TestServerOverloadResponses(t *testing.T) {
	eng := buildTestEngine(t, 2)
	srv := newServer(eng, newAdmission(1, 1, 10*time.Millisecond), 10, 0, false, false)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	// Hold the single slot so every request must queue or shed.
	if err := srv.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/search?q=pancreas")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	srv.adm.release()

	shed429, shed503 := 0, 0
	for c := range codes {
		switch c {
		case http.StatusTooManyRequests:
			shed429++
		case http.StatusServiceUnavailable:
			shed503++
		default:
			t.Fatalf("unexpected status %d under saturation", c)
		}
	}
	if shed503 == 0 {
		t.Fatal("no queued request timed out with 503")
	}
	if shed429+shed503 != 8 {
		t.Fatalf("shed %d+%d of 8", shed429, shed503)
	}
	if got := srv.shedQueue.Load() + srv.shedTimeout.Load(); got != 8 {
		t.Fatalf("shed counters sum to %d, want 8", got)
	}

	// Service resumes once the slot frees.
	resp, err := ts.Client().Get(ts.URL + "/search?q=pancreas")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-overload status %d", resp.StatusCode)
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	for i := 0; i < 900; i++ {
		h.observe(100 * time.Microsecond) // bucket upper bound 128µs
	}
	for i := 0; i < 100; i++ {
		h.observe(50 * time.Millisecond)
	}
	if p50 := h.quantile(0.50); p50 != 0.128 {
		t.Fatalf("p50 = %v ms", p50)
	}
	if p99 := h.quantile(0.99); p99 < 32 || p99 > 128 {
		t.Fatalf("p99 = %v ms", p99)
	}
	if (&latencyHist{}).quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
}

// TestSIGTERMClosesEngine drives run with -ingest, a short refresh and a
// low compaction threshold, acknowledges documents over HTTP and sends
// the process SIGTERM: run must drain and close the engine — no
// ingestion goroutine outlives it — and the directory must reopen with
// every acknowledged document and no orphaned temporary file.
func TestSIGTERMClosesEngine(t *testing.T) {
	dir := t.TempDir()
	if err := buildTestEngine(t, 2).Save(dir); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// Keep SIGTERM from killing the test binary whatever run is doing.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	done := make(chan error, 1)
	go func() {
		done <- run(serveConfig{
			data: dir, addr: addr, scorer: "pivoted-tfidf", k: 10,
			ingest: true, refresh: 10 * time.Millisecond, compactAt: 4,
			maxInflight: 4, maxQueue: 16, queueTimeout: time.Second,
			drainTimeout: 5 * time.Second,
		})
	}()
	base := "http://" + addr
	for deadline := time.Now().Add(10 * time.Second); ; {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("csserve never answered /healthz")
		}
		time.Sleep(10 * time.Millisecond)
	}
	const added = 10
	for i := 0; i < added; i++ {
		body, _ := json.Marshal(indexRequest{Title: fmt.Sprintf("added %d", i), Body: "zyzzyva drain", Predicates: []string{"neoplasms"}})
		resp, err := http.Post(base+"/index", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /index: status %d", resp.StatusCode)
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}

	// Close has waited for the ingestion goroutines, which may still be
	// returning (a deferred wg.Done runs before its frame is gone): give
	// them up to a second to leave, then fail on any that remains.
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for i := 0; i < 100 && strings.Contains(stacks, "segment.(*Ingester)"); i++ {
		time.Sleep(10 * time.Millisecond)
		stacks = string(buf[:runtime.Stack(buf, true)])
	}
	if strings.Contains(stacks, "segment.(*Ingester)") {
		t.Fatalf("ingestion goroutine outlived run:\n%s", stacks)
	}
	live, err := csrank.OpenLive(dir, csrank.BuildOptions{}, csrank.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if n := live.NumDocs(); n != 300+added {
		t.Fatalf("reopened %d documents, want %d", n, 300+added)
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), "index") && strings.HasSuffix(d.Name(), ".tmp") {
			t.Errorf("orphaned temporary file %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCatalogFailuresReported: shard 0's first view has one flipped df
// byte and shard 1's views.gob is not a catalog file; three documents
// sit uncompacted in the ingestion log. A read-only server reports the
// unopened catalog and the logged documents at startup, quarantines the
// corrupt view on the first query that would use it — answering as the
// straightforward plan does — and /statsz counts it.
func TestCatalogFailuresReported(t *testing.T) {
	dir := t.TempDir()
	if err := buildTestEngine(t, 2).Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard-000", "views.gob")
	cat, err := views.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v := cat.Match(nil) // the smallest view, written first
	if v == nil || len(v.TrackedWords()) == 0 {
		t.Fatal("shard 0 has no view with tracked words")
	}
	q := v.TrackedWords()[0] + " | " + v.K()[0]
	cat.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := snapshot.OpenPaged(data)
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := pf.Section("cols")
	cols[0] ^= 1 // the section aliases data; the first slab opens with the count column
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-001", "views.gob"), []byte("not a catalog"), 0o644); err != nil {
		t.Fatal(err)
	}
	live, err := csrank.OpenLive(dir, csrank.BuildOptions{}, csrank.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if _, err := live.Add(csrank.Document{Title: fmt.Sprintf("late %d", i), Body: "pancreas", Predicates: []string{"neoplasms"}}); err != nil {
			t.Fatal(err)
		}
	}
	live.Close()

	eng, err := csrank.OpenSharded(dir, csrank.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var report bytes.Buffer
	reportCatalogsAndLog(&report, dir, eng, false)
	for _, want := range []string{"csserve: shard 1 serves without views: ", "csserve: 3 acknowledged documents in the generation-0 ingestion log"} {
		if !strings.Contains(report.String(), want) {
			t.Fatalf("startup report %q lacks %q", report.String(), want)
		}
	}
	if strings.Contains(report.String(), "shard 0") {
		t.Fatalf("startup report blames shard 0, whose catalog opens: %q", report.String())
	}

	ts := httptest.NewServer(newServer(eng, newAdmission(4, 16, time.Second), 10, 0, false, false).routes())
	defer ts.Close()
	var got searchResponse
	if code := getJSON(t, ts, "/search?k=10&q="+url.QueryEscape(q), &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want, _, err := eng.SearchStraightforward(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Hits) != fmt.Sprint(want) || len(want) == 0 {
		t.Fatalf("%q answers %v over HTTP, the straightforward plan %v", q, got.Hits, want)
	}
	var st statszResponse
	getJSON(t, ts, "/statsz", &st)
	if len(st.Catalogs) != 2 || st.Catalogs[0].Quarantined != 1 || st.Catalogs[0].OpenError != "" ||
		st.Catalogs[1].Views != 0 || st.Catalogs[1].OpenError == "" {
		t.Fatalf("statsz catalogs %+v", st.Catalogs)
	}
}
