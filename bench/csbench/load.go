package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"csrank/internal/corpus"
)

// searchReply mirrors the /search response fields the harness checks.
type searchReply struct {
	Hits []struct {
		DocID int     `json:"doc_id"`
		Score float64 `json:"score"`
	} `json:"hits"`
	Stats struct {
		Degraded bool `json:"degraded"`
	} `json:"stats"`
}

// picker yields the next query index for one client.
type picker func() int

// loadPlan describes one workload's traffic.
type loadPlan struct {
	url     string   // the server's base URL
	urls    []string // the /search URL of each log query
	gold    *golden  // nil: answers cannot be checked while documents stream in
	pickers []picker
	warmup  time.Duration
	windows int
	winLen  time.Duration

	// The paced writer (nil docs = no writes).
	writeDocs []corpus.Citation
	writeRate float64 // documents per second
}

// loadResult is what the clients observed inside the measured interval.
type loadResult struct {
	search    windowSummary
	attempted int // searches sent, warm-up included
	failed    int // transport error, non-200, degraded, or golden mismatch
	firstErr  error

	acks       windowSummary // writer ack latency from due time
	ackFailed  int
	docsPosted int // documents acknowledged in total (warm-up included)
}

// searchOnce sends one query and checks the answer; it returns the
// latency of the HTTP exchange alone (the check is not timed).
func searchOnce(client *http.Client, target string, qi int, gold *golden) (time.Duration, error) {
	t0 := time.Now()
	resp, err := client.Get(target)
	if err != nil {
		return time.Since(t0), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("query %d: HTTP %d: %s", qi, resp.StatusCode, bytes.TrimSpace(body))
	}
	var reply searchReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return lat, fmt.Errorf("query %d: %w", qi, err)
	}
	if reply.Stats.Degraded {
		return lat, fmt.Errorf("query %d: degraded answer", qi)
	}
	if gold != nil {
		got := make([]goldHit, len(reply.Hits))
		for i, h := range reply.Hits {
			got[i] = goldHit{DocID: h.DocID, Score: h.Score}
		}
		if err := gold.check(qi, got); err != nil {
			return lat, err
		}
	}
	return lat, nil
}

func searchURLs(base string, log []logQuery) []string {
	out := make([]string, len(log))
	for i, q := range log {
		out[i] = fmt.Sprintf("%s/search?q=%s&k=%d", base, url.QueryEscape(q.Text), topK)
	}
	return out
}

// runLoad drives the plan: closed loop, one goroutine per picker, each
// on its own keep-alive connection, sending its next request when the
// previous answer arrived; optionally one writer posting documents on a
// fixed schedule. It returns after the measured interval.
func runLoad(ctx context.Context, client *http.Client, p loadPlan) (loadResult, error) {
	measured := time.Duration(p.windows) * p.winLen
	var res loadResult

	// The clients share two cores with the server, and at the default
	// setting this process — holding the corpus and decoding ten thousand
	// answers a second — would collect about once a second, each cycle
	// stalling the requests in flight: right at the 99th percentile of the
	// cache-hit path. Collect now, then let the heap grow through the
	// interval (bounded: a few hundred MB per ten seconds of load).
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(2000))

	start := time.Now().Add(p.warmup) // measured interval begins here
	end := start.Add(measured)
	type clientOut struct {
		samples  []sample
		failed   int
		firstErr error
	}
	outs := make([]clientOut, len(p.pickers))
	var wg sync.WaitGroup
	for c := range p.pickers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for ctx.Err() == nil {
				qi := p.pickers[c]()
				lat, err := searchOnce(client, p.urls[qi], qi, p.gold)
				done := time.Now()
				if !done.Before(end) {
					return
				}
				o.samples = append(o.samples, sample{end: done.Sub(start), lat: lat, ok: err == nil})
				if err != nil {
					o.failed++
					if o.firstErr == nil {
						o.firstErr = err
					}
				}
			}
		}(c)
	}

	var ackSamples []sample
	if p.writeDocs != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for i, d := range p.writeDocs {
				due := t0.Add(time.Duration(float64(i) / p.writeRate * float64(time.Second)))
				if !due.Before(end) || ctx.Err() != nil {
					return
				}
				time.Sleep(time.Until(due))
				err := postDoc(client, p.url, d)
				done := time.Now()
				if err != nil {
					res.ackFailed++
					if res.firstErr == nil {
						res.firstErr = err
					}
					continue
				}
				res.docsPosted++
				ackSamples = append(ackSamples, sample{end: done.Sub(start), lat: done.Sub(due), ok: true})
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return res, err
	}

	var all []sample
	for _, o := range outs {
		all = append(all, o.samples...)
		res.attempted += len(o.samples)
		res.failed += o.failed
		if res.firstErr == nil {
			res.firstErr = o.firstErr
		}
	}
	res.search = summarize(all, p.winLen, p.windows)
	res.acks = summarize(ackSamples, p.winLen, p.windows)
	return res, nil
}

// postDoc sends one document to POST /index and waits for the durable
// acknowledgement.
func postDoc(client *http.Client, base string, d corpus.Citation) error {
	body, err := json.Marshal(struct {
		Title      string   `json:"title"`
		Body       string   `json:"body"`
		Predicates []string `json:"predicates"`
	}{d.Title, d.Abstract, d.Mesh})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/index", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	msg, _ := io.ReadAll(resp.Body) // best-effort error text
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /index: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// cycle hands out the given log indexes in order, over and over, across
// all clients sharing it.
func cycle(idx []int) picker {
	var next atomic.Int64
	return func() int { return idx[int((next.Add(1)-1)%int64(len(idx)))] }
}

// pretouch sends every log query once, in log order, so that a result
// cache holds the whole log before the warm-up starts.
func pretouch(client *http.Client, p loadPlan) error {
	for qi, target := range p.urls {
		if _, err := searchOnce(client, target, qi, p.gold); err != nil {
			return fmt.Errorf("pre-touch: %w", err)
		}
	}
	return nil
}
