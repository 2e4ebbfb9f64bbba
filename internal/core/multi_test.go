package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csrank/internal/analysis"
	"csrank/internal/index"
	"csrank/internal/postings"
	"csrank/internal/query"
)

// randomSlices builds one random corpus, splits it into n contiguous
// slices (each with its own index and a strictly increasing, pairwise
// disjoint global map, engines configured by opts), and returns some
// non-trivial queries.
func randomSlices(t *testing.T, rng *rand.Rand, nDocs, n int, opts Options) ([]Slice, []query.Query) {
	t.Helper()
	meshTerms := make([]string, 6)
	for i := range meshTerms {
		meshTerms[i] = fmt.Sprintf("m%02d", i)
	}
	words := make([]string, 6)
	for i := range words {
		words[i] = fmt.Sprintf("w%02d", i)
	}
	docs := make([]index.Document, nDocs)
	for d := range docs {
		var mesh, content []string
		for _, m := range meshTerms {
			if rng.Float64() < 0.3 {
				mesh = append(mesh, m)
			}
		}
		for _, w := range words {
			for k := rng.Intn(4); k > 0; k-- {
				content = append(content, w)
			}
		}
		if len(content) == 0 {
			content = append(content, "pad")
		}
		docs[d] = index.Document{Fields: map[string]string{
			"title":   "t",
			"content": strings.Join(content, " "),
			"mesh":    strings.Join(mesh, " "),
		}}
	}
	schema := index.Schema{
		Fields: []index.FieldSpec{
			{Name: "title", Analyzer: analysis.Keyword(), Stored: true},
			{Name: "content", Analyzer: analysis.Keyword()},
			{Name: "mesh", Analyzer: analysis.Keyword()},
		},
		PredicateField: "mesh",
		ContentField:   "content",
	}
	slices := make([]Slice, n)
	per := (nDocs + n - 1) / n
	for i := 0; i < n; i++ {
		lo, hi := i*per, (i+1)*per
		if hi > nDocs {
			hi = nDocs
		}
		ix, err := index.BuildFrom(schema, 16, docs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		globals := make([]uint32, hi-lo)
		for j := range globals {
			globals[j] = uint32(lo + j)
		}
		slices[i] = Slice{Eng: New(ix, nil, opts), Globals: globals}
	}
	queries := []query.Query{
		{Keywords: []string{words[0]}},
		{Keywords: []string{words[1], words[2]}, Context: meshTerms[:2]},
		{Keywords: []string{words[3]}, Context: meshTerms[2:4]},
	}
	return slices, queries
}

// without returns slices with index i removed.
func without(slices []Slice, i int) []Slice {
	out := make([]Slice, 0, len(slices)-1)
	out = append(out, slices[:i]...)
	return append(out, slices[i+1:]...)
}

// TestSearchSlicesPartialBitIdentical: a partial answer with one slice
// lost — in the stats phase or, harder, in the scoring phase after its
// statistics were already merged — must be bit-identical to a fresh
// fail-fast scatter-gather over only the surviving slices. The scoring
// phase case is the re-merge contract: survivors must be re-scored
// under the survivors-only statistics, not the stale 4-slice merge.
func TestSearchSlicesPartialBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	slices, queries := randomSlices(t, rng, 200, 4, Options{})
	for _, phase := range []string{"stats", "score"} {
		for target := 0; target < len(slices); target++ {
			hooks := make([]SliceHook, len(slices))
			ph := phase
			hooks[target] = func(ctx context.Context, p string) {
				if p == ph {
					panic(fmt.Sprintf("injected %s-phase crash", p))
				}
			}
			healthy := without(slices, target)
			for _, q := range queries {
				hits, per, failures, err := SearchSlicesPartial(
					context.Background(), slices, q, 10, SliceOptions{Hooks: hooks})
				if err != nil {
					t.Fatalf("%s/slice %d: %v", phase, target, err)
				}
				if len(failures) != 1 || failures[0].Slice != target || failures[0].Kind != FailKindPanic {
					t.Fatalf("%s/slice %d: failures %+v", phase, target, failures)
				}
				if len(per) != len(slices) {
					t.Fatalf("per-slice stats length %d, want %d", len(per), len(slices))
				}
				want, _, _, err := SearchSlicesPartial(context.Background(), healthy, q, 10, SliceOptions{MinSlices: len(healthy)})
				if err != nil {
					t.Fatal(err)
				}
				if len(hits) != len(want) {
					t.Fatalf("%s/slice %d: %d hits, healthy-only has %d", phase, target, len(hits), len(want))
				}
				for i := range want {
					if hits[i].Global != want[i].Global || hits[i].Score != want[i].Score {
						t.Fatalf("%s/slice %d rank %d: (%d, %v), healthy-only has (%d, %v)",
							phase, target, i, hits[i].Global, hits[i].Score, want[i].Global, want[i].Score)
					}
				}
			}
		}
	}
}

// TestSearchSlicesPartialFailureKinds: each injected misbehavior maps to
// its documented failure kind — a *postings.BlockCorruptError panic to
// "corruption", a stall past the per-slice timeout to "timeout", a
// generic panic to "panic".
func TestSearchSlicesPartialFailureKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	slices, queries := randomSlices(t, rng, 120, 3, Options{})
	cases := []struct {
		name string
		hook SliceHook
		kind string
	}{
		{"corrupt", func(ctx context.Context, phase string) {
			panic(&postings.BlockCorruptError{Detail: "injected"})
		}, FailKindCorruption},
		{"panic", func(ctx context.Context, phase string) {
			panic("injected")
		}, FailKindPanic},
		{"stall", func(ctx context.Context, phase string) {
			select {
			case <-ctx.Done():
			case <-time.After(time.Minute):
			}
		}, FailKindTimeout},
	}
	for _, tc := range cases {
		hooks := []SliceHook{nil, tc.hook, nil}
		_, _, failures, err := SearchSlicesPartial(
			context.Background(), slices, queries[1], 10,
			SliceOptions{Timeout: 30 * time.Millisecond, Hooks: hooks})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(failures) != 1 || failures[0].Slice != 1 || failures[0].Kind != tc.kind {
			t.Fatalf("%s: failures %+v", tc.name, failures)
		}
	}
}

// TestSearchSlicesPartialFailClosed: MinSlices is a floor — losing
// enough slices fails the query with ErrTooFewSlices rather than
// serving an answer over too little of the collection.
func TestSearchSlicesPartialFailClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	slices, queries := randomSlices(t, rng, 120, 3, Options{})
	boom := func(ctx context.Context, phase string) { panic("injected") }
	hooks := []SliceHook{boom, boom, nil}
	_, _, failures, err := SearchSlicesPartial(
		context.Background(), slices, queries[0], 10,
		SliceOptions{MinSlices: 2, Hooks: hooks})
	if !errors.Is(err, ErrTooFewSlices) {
		t.Fatalf("err %v, want ErrTooFewSlices", err)
	}
	if len(failures) != 2 {
		t.Fatalf("failures %+v, want both dead slices attributed", failures)
	}
	// MinSlices = len(slices) turns any single loss into a failure.
	_, _, _, err = SearchSlicesPartial(
		context.Background(), slices, queries[0], 10,
		SliceOptions{MinSlices: 3, Hooks: []SliceHook{nil, boom, nil}})
	if !errors.Is(err, ErrTooFewSlices) {
		t.Fatalf("fail-fast err %v, want ErrTooFewSlices", err)
	}
}

// TestSearchSlicesPartialCallerCancel: a caller-cancelled context fails
// the whole query with the context's error — no slice is blamed, no
// partial answer fabricated.
func TestSearchSlicesPartialCallerCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	slices, queries := randomSlices(t, rng, 120, 3, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	slow := func(c context.Context, phase string) {
		if calls.Add(1) == 1 {
			cancel()
		}
		<-c.Done()
	}
	hits, per, failures, err := SearchSlicesPartial(
		ctx, slices, queries[0], 10, SliceOptions{Hooks: []SliceHook{slow, slow, slow}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if hits != nil || per != nil || failures != nil {
		t.Fatalf("cancelled query fabricated results: hits=%v failures=%v", hits, failures)
	}
}
