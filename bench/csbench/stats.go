package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (⌈q·n⌉-th smallest) of
// xs, which it sorts in place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the mean of the two middle values for even n, so a median
// of window percentiles does not favour either neighbour.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one completed request: when it finished relative to the
// start of the measured interval (negative = warm-up), how long it took,
// and whether the answer was verified correct.
type sample struct {
	end time.Duration
	lat time.Duration
	ok  bool
}

// windowSummary digests one measured interval window by window. The box
// the benchmark runs on is shared: other tenants slow some windows down
// and never speed one up, so each reported figure is the quartile on the
// good side across windows (for six windows, the second best) — steady
// against interference in up to three quarters of the interval, and
// still a property of a whole window's traffic, not of its luckiest
// request.
type windowSummary struct {
	N         int       // samples inside the measured interval
	RatePerS  float64   // upper quartile of the per-window rates of correct answers
	P50ms     float64   // lower quartile of the per-window medians
	P99ms     float64   // lower quartile of the per-window p99s
	WindowN   []int     // samples per window
	WindowP50 []float64 // per-window median latency, ms
	WindowP99 []float64 // per-window p99 latency, ms
}

// summarize buckets the samples that ended inside [0, windows·winLen).
func summarize(samples []sample, winLen time.Duration, windows int) windowSummary {
	per := make([][]float64, windows)
	okCount := make([]float64, windows)
	for _, s := range samples {
		if s.end < 0 {
			continue
		}
		w := int(s.end / winLen)
		if w >= windows {
			continue
		}
		per[w] = append(per[w], float64(s.lat)/float64(time.Millisecond))
		if s.ok {
			okCount[w]++
		}
	}
	var sum windowSummary
	rates := make([]float64, windows)
	for w, lats := range per {
		sum.N += len(lats)
		sum.WindowN = append(sum.WindowN, len(lats))
		sum.WindowP50 = append(sum.WindowP50, quantile(lats, 0.50))
		sum.WindowP99 = append(sum.WindowP99, quantile(lats, 0.99))
		rates[w] = okCount[w] / winLen.Seconds()
	}
	sum.RatePerS = quantile(rates, 0.75)
	sum.P50ms = quantile(append([]float64(nil), sum.WindowP50...), 0.25)
	sum.P99ms = quantile(append([]float64(nil), sum.WindowP99...), 0.25)
	return sum
}

// medianNsPerOp times batches of per calls to fn and returns the median
// batch's nanoseconds per call — for operations too short to clock one
// at a time. fn receives a running call index.
func medianNsPerOp(batches, per int, fn func(i int)) float64 {
	out := make([]float64, batches)
	i := 0
	for b := range out {
		t0 := time.Now()
		for j := 0; j < per; j++ {
			fn(i)
			i++
		}
		out[b] = float64(time.Since(t0)) / float64(per)
	}
	return median(out)
}

// p50Each clocks every call of fn(i) for i in [0,n) and returns the
// median in nanoseconds.
func p50Each(n int, fn func(i int)) float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0))
	}
	return quantile(out, 0.50)
}
