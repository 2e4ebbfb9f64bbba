package main

import (
	"math"
	"testing"
)

// A hand-built tree: root 0..100; child A 10..40 with grandchild 20..30;
// children B 50..80 and C 70..90 overlap by 10.
func TestSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{Query: 1, ID: 1, Parent: 0, Name: "query", Start: 0, End: 100},
		{Query: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Query: 1, ID: 3, Parent: 2, Name: "a.inner", Start: 20, End: 30},
		{Query: 1, ID: 4, Parent: 1, Name: "b", Start: 50, End: 80},
		{Query: 1, ID: 5, Parent: 1, Name: "c", Start: 70, End: 90},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (30 + 40), // A covers 30, B∪C covers 50..90 = 40
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 20,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	// Layers account for 20+10+30+20 = 80 of the root's 100.
	if got := coverage(spans); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("coverage = %v, want 0.8", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(1, 0, "query")
	tr.end(id, "renamed")
	if id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	live := newTracer(2)
	root := live.begin(7, 0, "query")
	kid := live.begin(7, root, "core.stats")
	live.end(kid, "core.stats.view")
	live.end(root, "")
	if len(live.spans) != 2 || live.spans[1].Name != "core.stats.view" || live.spans[1].Parent != root || live.spans[0].Name != "query" {
		t.Errorf("spans = %+v", live.spans)
	}
	if live.spans[1].End < live.spans[1].Start || live.spans[0].End < live.spans[1].End {
		t.Errorf("span times out of order: %+v", live.spans)
	}
}
