package postings

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestBuilderAddSaturates: accumulating TFs past the uint32 ceiling must
// saturate at MaxUint32, not wrap to a small count.
func TestBuilderAddSaturates(t *testing.T) {
	b := NewBuilder(0)
	b.Add(7, math.MaxUint32)
	b.Add(7, 5)
	l := b.Build()
	if got := tfs(l)[7]; got != math.MaxUint32 {
		t.Fatalf("TF(7) = %d, want saturated MaxUint32", got)
	}
}

// TestCountTFSumPastUint32: tc accumulates in int64, so a context whose
// TF total exceeds MaxUint32 must be reported exactly.
func TestCountTFSumPastUint32(t *testing.T) {
	const n = 5
	ps := make([]Posting, n)
	ids := make([]uint32, n)
	for i := range ps {
		ps[i] = Posting{DocID: uint32(i + 1), TF: math.MaxUint32}
		ids[i] = uint32(i + 1)
	}
	l := NewList(ps, 0)
	pred := fromDocIDs(ids, 0)
	df, tc := CountTFSum(l, []*List{pred}, nil)
	want := int64(n) * int64(math.MaxUint32)
	if df != n || tc != want {
		t.Fatalf("df, tc = %d, %d; want %d, %d", df, tc, n, want)
	}
	// The degenerate no-predicate path sums via SumTF — same widening.
	if _, tc0 := CountTFSum(l, nil, nil); tc0 != want {
		t.Fatalf("no-predicate tc = %d, want %d", tc0, want)
	}
}

// denseTestLists builds k overlapping lists big enough that every kernel
// crosses multiple chunk ranges and stride checkpoints.
func denseTestLists(k, n int) []*List {
	lists := make([]*List, k)
	for i := 0; i < k; i++ {
		var ids []uint32
		for d := 0; d < n; d++ {
			if d%(i+1) == 0 {
				ids = append(ids, uint32(d*3)) // spread across chunk ranges
			}
		}
		lists[i] = fromDocIDs(ids, 0)
	}
	return lists
}

// TestKernelsBackgroundCtxParity: every *Ctx kernel under
// context.Background must be error-free and agree exactly with its plain
// wrapper — the zero-overhead no-deadline guarantee at the kernel level.
func TestKernelsBackgroundCtxParity(t *testing.T) {
	lists := denseTestLists(3, 50000)
	bg := context.Background()

	var plainSt, visitSt Stats
	plain := Intersect(lists, &plainSt)
	var visited []uint32
	if err := VisitConjunction(bg, lists, &visitSt, func(d uint32) { visited = append(visited, d) }); err != nil {
		t.Fatal(err)
	}
	if !equalIDs(plain.DocIDs, visited) {
		t.Fatalf("VisitConjunction visited %d documents, Intersect found %d", len(visited), len(plain.DocIDs))
	}
	if visitSt.Intersections++; visitSt != plainSt {
		t.Fatalf("VisitConjunction charged %+v (plus one intersection), Intersect %+v", visitSt, plainSt)
	}

	if n, nc := IntersectionSize(lists, nil), int64(0); true {
		var err error
		nc, err = IntersectionSizeCtx(bg, lists, nil)
		if err != nil || nc != n {
			t.Fatalf("IntersectionSizeCtx = %d, %v; want %d", nc, err, n)
		}
	}

	param := func(d uint32) int64 { return int64(d % 17) }
	c1, s1 := CountSum(lists, param, nil)
	c2, s2, err := CountSumCtx(bg, lists, param, nil)
	if err != nil || c1 != c2 || s1 != s2 {
		t.Fatalf("CountSumCtx = (%d, %d, %v); want (%d, %d)", c2, s2, err, c1, s1)
	}
}

// TestKernelsCancelledCtx: a pre-cancelled ctx stops every kernel early
// with context.Canceled and a partial (possibly empty) result.
func TestKernelsCancelledCtx(t *testing.T) {
	lists := denseTestLists(3, 50000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	full := IntersectionSize(lists, nil)
	var visited int64
	if err := VisitConjunction(ctx, lists, nil, func(uint32) { visited++ }); !errors.Is(err, context.Canceled) {
		t.Fatalf("VisitConjunction err = %v", err)
	} else if visited >= full && full > 0 {
		t.Fatalf("VisitConjunction did not stop early: %d of %d", visited, full)
	}
	if n, err := IntersectionSizeCtx(ctx, lists, nil); !errors.Is(err, context.Canceled) || (n >= full && full > 0) {
		t.Fatalf("IntersectionSizeCtx = %d, %v", n, err)
	}
	if _, _, err := CountSumCtx(ctx, lists, func(uint32) int64 { return 1 }, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountSumCtx err = %v", err)
	}
	if _, _, err := CountTFSumCtx(ctx, lists[0], lists[1:], nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountTFSumCtx err = %v", err)
	}
}
