package main

import (
	"reflect"
	"testing"
)

func TestZipfDeterministicAndSkewed(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipf(1000, seed)
		out := make([]int, 20000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different draws")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds, same draws")
	}
	counts := make([]int, 1000)
	for _, r := range a {
		if r < 0 || r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// s = 1.0 over 1000 ranks: P(0) = 1/H(1000) ≈ 0.1336, P(1) half of it.
	if p0 := float64(counts[0]) / 20000; p0 < 0.11 || p0 > 0.16 {
		t.Errorf("rank 0 drawn with frequency %.3f, want about 0.134", p0)
	}
	if r := float64(counts[0]) / float64(counts[1]); r < 1.6 || r > 2.5 {
		t.Errorf("rank 0 : rank 1 = %.2f, want about 2", r)
	}
}

// The log keeps its class quotas, is a function of the seed alone, and
// every query in it has at least one hit in the golden ranking.
func TestQueryLogQuotasAndGoldenHits(t *testing.T) {
	sz := sizes{BaseDocs: 12000, HeldOut: 100, Queries: 100}
	pin, err := generateCorpus(sz, 3)
	if err != nil {
		t.Fatal(err)
	}
	cites := pin.corp.Docs[:sz.BaseDocs]
	mi := buildMeshIndex(cites)
	log, err := buildQueryLog(cites, mi, sz.Queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := buildQueryLog(cites, mi, sz.Queries, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log, again) {
		t.Error("same seed, different log")
	}
	other, err := buildQueryLog(cites, mi, sz.Queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(log, other) {
		t.Error("different seeds, same log")
	}
	count := map[string]int{}
	seen := map[string]bool{}
	for _, q := range log {
		count[q.Class]++
		if seen[q.Text] {
			t.Errorf("query %q drawn twice", q.Text)
		}
		seen[q.Text] = true
	}
	want := map[string]int{classLarge: 40, classSmall: 40, classFree: 20}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("class counts = %v, want %v", count, want)
	}
	// buildGolden fails on a query without a hit.
	gold, err := buildGolden(pin.base, log)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range gold.want {
		if len(w) == 0 || len(w) > topK {
			t.Errorf("query %q: %d golden hits", log[i].Text, len(w))
		}
	}
	if err := gold.check(0, gold.want[0]); err != nil {
		t.Errorf("golden does not match itself: %v", err)
	}
	wrong := append([]goldHit(nil), gold.want[0]...)
	wrong[0].Score += 1e-12
	if gold.check(0, wrong) == nil {
		t.Error("a score off by 1e-12 passed the check")
	}
}

func TestContextSize(t *testing.T) {
	mi := meshIndex{"a": {1, 2, 3, 5, 8}, "b": {2, 3, 4, 8, 9}, "c": {8}}
	for _, c := range []struct {
		terms []string
		want  int
	}{{[]string{"a"}, 5}, {[]string{"a", "b"}, 3}, {[]string{"a", "b", "c"}, 1}, {[]string{"a", "zzz"}, 0}, {nil, 0}} {
		if got := mi.contextSize(c.terms); got != c.want {
			t.Errorf("contextSize(%v) = %d, want %d", c.terms, got, c.want)
		}
	}
}
