package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/ranking"
)

var (
	mappedOnce sync.Once
	mappedIx   *index.Index
	mappedErr  error
)

// mappedPrunedIndex is the format-v4 twin of the pruned-corpus index,
// built once per process (the in-memory round-trip of a 140k-doc index
// is the expensive part, not the queries).
func mappedPrunedIndex(t testing.TB) *index.Index {
	t.Helper()
	ix, _ := buildPrunedSystem(t)
	mappedOnce.Do(func() {
		mappedIx, mappedErr = index.MappedCopy(ix)
	})
	if mappedErr != nil {
		t.Fatal(mappedErr)
	}
	return mappedIx
}

// TestMappedBitIdenticalToHeap is the tentpole acceptance property:
// rankings over the heap-loaded index and the mapped v4 image must be
// bit-identical — same DocIDs, same order, bit-for-bit equal scores —
// across all five scorers, pruning on and off, every query shape. The
// cost counters (Seeks, SegmentsSkipped, EntriesScanned) must agree
// too: mapped cursors charge the M0 model from global positions, never
// from how blocks happen to materialize.
func TestMappedBitIdenticalToHeap(t *testing.T) {
	// The heap side must really be the heap engine, even when the suite
	// runs under CSRANK_FORCE_MAPPED (the mapped side is built explicitly).
	t.Setenv("CSRANK_FORCE_MAPPED", "")
	hx, _ := buildPrunedSystem(t)
	mx := mappedPrunedIndex(t)
	queries := []string{
		"alpha",
		"beta",
		"alpha beta",
		"alpha | ctx_a",
		"alpha beta | ctx_a",
	}
	combo := 0
	for _, sc := range ranking.All() {
		for _, pruning := range []bool{false, true} {
			heap := New(hx, nil, Options{Scorer: sc, Pruning: pruning})
			mapped := New(mx, nil, Options{Scorer: sc, Pruning: pruning})
			for range 3 {
				qs := queries[combo%len(queries)]
				combo++
				q := query.MustParse(qs)
				for _, k := range []int{1, 10} {
					want, wst, err := heap.Search(context.Background(), q, k, "")
					if err != nil {
						t.Fatal(err)
					}
					got, gst, err := mapped.Search(context.Background(), q, k, "")
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s pruning=%v k=%d %q", sc.Name(), pruning, k, qs)
					assertBitIdentical(t, label, want, got)
					if wst.Seeks != gst.Seeks || wst.SegmentsSkipped != gst.SegmentsSkipped ||
						wst.EntriesScanned != gst.EntriesScanned || wst.BitmapWords != gst.BitmapWords {
						t.Fatalf("%s: cost charges differ: heap %+v mapped %+v", label, wst.Stats, gst.Stats)
					}
					if wst.Pruning.ContainersSkipped != gst.Pruning.ContainersSkipped ||
						wst.Pruning.DocsSkipped != gst.Pruning.DocsSkipped || wst.Pruning.BoundChecks != gst.Pruning.BoundChecks {
						t.Fatalf("%s: pruning counters differ: heap %+v mapped %+v", label, wst.Pruning, gst.Pruning)
					}
				}
			}
		}
	}
}

// TestMappedSkipsBlocksUndecoded asserts the point of the lazy reader:
// on a broad pruned query, containers dismissed by their directory
// bounds must be counted as never-decompressed, and the heap engine must
// report zero such skips (everything is resident there).
func TestMappedSkipsBlocksUndecoded(t *testing.T) {
	t.Setenv("CSRANK_FORCE_MAPPED", "")
	hx, _ := buildPrunedSystem(t)
	q := query.MustParse("alpha")
	_, hst, err := New(hx, nil, Options{Pruning: true}).Search(context.Background(), q, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if hst.Pruning.ContainersSkipped == 0 {
		t.Fatal("fixture lost its skippable container")
	}
	if hst.Pruning.ContainersSkippedUndecoded != 0 {
		t.Fatalf("heap engine claims %d undecoded skips", hst.Pruning.ContainersSkippedUndecoded)
	}
	// Fresh mapped copy: earlier tests may have materialized blocks in
	// the shared fixture, and the counter is about genuinely cold blocks.
	cold, err := index.MappedCopy(hx)
	if err != nil {
		t.Fatal(err)
	}
	_, mst, err := New(cold, nil, Options{Pruning: true}).Search(context.Background(), q, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if mst.Pruning.ContainersSkipped == 0 {
		t.Fatal("mapped engine skipped no containers")
	}
	if mst.Pruning.ContainersSkippedUndecoded == 0 {
		t.Fatal("mapped engine decoded every skipped container: the dismiss-before-decompress path is dead")
	}
	t.Logf("mapped: containers skipped=%d, undecoded=%d, docs skipped=%d",
		mst.Pruning.ContainersSkipped, mst.Pruning.ContainersSkippedUndecoded, mst.Pruning.DocsSkipped)
}

// TestForceMappedSeam: with CSRANK_FORCE_MAPPED set, New must serve a
// heap index through its mapped twin transparently.
func TestForceMappedSeam(t *testing.T) {
	hx, _ := buildPrunedSystem(t)
	want, _, err := New(hx, nil, Options{}).Search(context.Background(), query.MustParse("alpha beta"), 10, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("CSRANK_FORCE_MAPPED", "1")
	e := New(hx, nil, Options{Pruning: true})
	if !e.Index().Mapped() {
		t.Fatal("CSRANK_FORCE_MAPPED did not swap in a mapped index")
	}
	got, _, err := e.Search(context.Background(), query.MustParse("alpha beta"), 10, "")
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "force-mapped", want, got)
}

// BenchmarkPrunedSearchMapped compares pruned top-k latency over the
// heap index and its mapped v4 twin on the multi-container corpus; the
// mapped arm amortizes block decoding across iterations through the
// block cache exactly as a server would.
func BenchmarkPrunedSearchMapped(b *testing.B) {
	hx, _ := buildPrunedSystem(b)
	mx, err := index.MappedCopy(hx)
	if err != nil {
		b.Fatal(err)
	}
	q := query.MustParse("alpha beta")
	for _, arm := range []struct {
		name string
		ix   *index.Index
	}{{"heap", hx}, {"mapped", mx}} {
		b.Run(arm.name, func(b *testing.B) {
			e := New(arm.ix, nil, Options{Pruning: true})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Search(context.Background(), q, 10, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
