package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// One stalled window must not set the reported tail: the p99 is the
// median of the per-window p99s.
func TestSummarizeWindowMedian(t *testing.T) {
	const win = time.Second
	var samples []sample
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			lat := time.Millisecond
			if w == 2 && i >= 90 { // a stall in window 2 only
				lat = 500 * time.Millisecond
			}
			samples = append(samples, sample{end: time.Duration(w)*win + time.Duration(i)*time.Millisecond, lat: lat})
		}
	}
	samples = append(samples,
		sample{end: -time.Millisecond, lat: time.Hour}, // warm-up
		sample{end: 5 * win, lat: time.Hour})           // after the interval
	s := summarize(samples, win, 5)
	if s.N != 500 {
		t.Fatalf("N = %d, want 500 (warm-up and late samples excluded)", s.N)
	}
	if s.P50ms != 1 {
		t.Errorf("p50 = %v ms, want 1", s.P50ms)
	}
	if s.P99ms != 1 {
		t.Errorf("p99 = %v ms, want 1: one stalled window out of five must not set the tail", s.P99ms)
	}
	if len(s.WindowP99) != 5 || s.WindowP99[2] != 500 {
		t.Errorf("window p99s = %v, want the stall visible in window 2", s.WindowP99)
	}
	for w, n := range s.WindowN {
		if n != 100 {
			t.Errorf("window %d holds %d samples, want 100", w, n)
		}
	}
}
