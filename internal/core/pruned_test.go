package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// prunedCorpusDocs spans three posting-list containers (docIDs run past
// 2·2^16), so container-granular skipping is actually reachable. Every
// document has exactly the same analyzed content length, which makes the
// guaranteed-skip test's threshold argument exact: with equal lengths,
// score is monotone in tf alone.
const prunedCorpusDocs = 140000

var (
	prunedOnce sync.Once
	prunedIx   *index.Index
	prunedCat  *views.Catalog
	prunedErr  error
)

// prunedTFAlpha is the tf of "alpha" in doc i (0 when absent). Documents
// past 120000 — covering the whole last container — carry tf 1 only, so
// a filled top-10 heap makes their containers skippable.
func prunedTFAlpha(i int) int {
	if i%2 != 0 {
		return 0
	}
	if i >= 120000 {
		return 1
	}
	return 1 + int((uint32(i)*2654435761)>>20)%20
}

func prunedTFBeta(i int) int {
	if i%5 != 0 {
		return 0
	}
	return 1 + i%7
}

// buildPrunedSystem builds the shared multi-container corpus once per
// process, plus a catalog with one view over {ctx_a} tracking both
// keywords (for the views-on arm of the equivalence matrix).
func buildPrunedSystem(t testing.TB) (*index.Index, *views.Catalog) {
	t.Helper()
	prunedOnce.Do(func() {
		const docLen = 40
		pads := []string{"pada", "padb", "padc", "padd", "pade", "padf"}
		docs := make([]index.Document, prunedCorpusDocs)
		var sb strings.Builder
		for i := range docs {
			sb.Reset()
			ta, tb := prunedTFAlpha(i), prunedTFBeta(i)
			for j := 0; j < ta; j++ {
				sb.WriteString("alpha ")
			}
			for j := 0; j < tb; j++ {
				sb.WriteString("beta ")
			}
			for j := ta + tb; j < docLen; j++ {
				sb.WriteString(pads[(i+j)%len(pads)])
				sb.WriteByte(' ')
			}
			mesh := "ctx_other"
			if i%5 != 0 {
				mesh = "ctx_a"
			}
			if i%16 == 0 {
				mesh += " ctx_b"
			}
			// ctx_even and ctx_flip are both dense in every container, share
			// no document in the first and agree from the second on.
			if i%2 == 0 {
				mesh += " ctx_even"
			}
			if (i < 1<<16) == (i%2 == 1) {
				mesh += " ctx_flip"
			}
			docs[i] = index.Document{Fields: map[string]string{
				"title": fmt.Sprintf("d%d", i), "content": sb.String(), "mesh": mesh,
			}}
		}
		var ix *index.Index
		ix, prunedErr = index.BuildFrom(corpus.Schema(), 0, docs)
		if prunedErr != nil {
			return
		}
		tbl := widetable.FromIndex(ix, []string{"alpha", "beta"})
		v, err := views.Materialize(tbl, []string{"ctx_a"}, []string{"alpha", "beta"})
		if err != nil {
			prunedErr = err
			return
		}
		prunedIx = ix
		prunedCat = views.NewCatalog([]*views.View{v}, 100, 1<<30)
	})
	if prunedErr != nil {
		t.Fatal(prunedErr)
	}
	return prunedIx, prunedCat
}

// TestPrunedBitIdenticalToExhaustive is the safety contract: with
// pruning on or off, Search must return exactly bruteTopK's top-k —
// same DocIDs, same order, bit-for-bit equal scores — for every scorer
// and every k, conventional and contextual queries alike. Every scorer
// runs every query while k rotates, so the cross is covered without
// scoring the 140k-doc corpus hundreds of times.
func TestPrunedBitIdenticalToExhaustive(t *testing.T) {
	ix, _ := buildPrunedSystem(t)
	queries := []string{
		"alpha",
		"beta",
		"alpha beta",
		"alpha | ctx_a",
		"beta | ctx_b",
		"alpha beta | ctx_a",
	}
	ks := []int{1, 10, 100}
	combo := 0
	for _, sc := range ranking.All() {
		engs := []*Engine{New(ix, nil, Options{Scorer: sc}), New(ix, nil, Options{Scorer: sc, Pruning: true})}
		for _, qs := range queries {
			k := ks[combo%len(ks)]
			combo++
			q := query.MustParse(qs)
			want := bruteTopK(t, engs[0], q, k)
			for _, e := range engs {
				got, _, err := e.SearchCtx(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, fmt.Sprintf("%s pruning=%v k=%d %q", sc.Name(), e.pruning, k, qs), want, got)
			}
		}
	}
}

// TestPrunedBitIdenticalWithViews repeats the check on the view-backed
// contextual plan: bounds are computed from whatever statistics the
// query ranks with, so a view-answered S_c(D_P) must prune just as
// safely as the straightforward one.
func TestPrunedBitIdenticalWithViews(t *testing.T) {
	ix, cat := buildPrunedSystem(t)
	engs := []*Engine{New(ix, cat, Options{}), New(ix, cat, Options{Pruning: true})}
	for _, k := range []int{1, 10, 100} {
		for _, qs := range []string{"alpha | ctx_a", "alpha beta | ctx_a", "beta | ctx_b"} {
			q := query.MustParse(qs)
			want := bruteTopK(t, engs[0], q, k)
			for _, e := range engs {
				got, _, err := e.SearchCtx(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, fmt.Sprintf("views pruning=%v k=%d %q", e.pruning, k, qs), want, got)
			}
		}
	}
}

// TestPrunedSkipsWork asserts pruning actually prunes on the corpus built
// for it: the last container holds only tf-1 "alpha" documents, so once
// the top-10 heap fills with the tf≥10 scores of earlier containers, its
// summed ceiling falls below the threshold and the container is skipped
// wholesale; low-tf documents inside the surviving containers fail their
// document-level bound checks too.
func TestPrunedSkipsWork(t *testing.T) {
	ix, _ := buildPrunedSystem(t)
	e := New(ix, nil, Options{Pruning: true})
	_, st, err := e.SearchCtx(context.Background(), query.MustParse("alpha"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pruning.ContainersSkipped < 1 {
		t.Fatalf("ContainersSkipped = %d, want ≥ 1 (tf-1 tail container must be skipped)", st.Pruning.ContainersSkipped)
	}
	if st.Pruning.DocsSkipped == 0 {
		t.Fatal("DocsSkipped = 0, want document-level skips inside surviving containers")
	}
	if st.Pruning.BoundChecks < st.Pruning.DocsSkipped {
		t.Fatalf("BoundChecks %d < DocsSkipped %d", st.Pruning.BoundChecks, st.Pruning.DocsSkipped)
	}
	// The cost model must show the savings: a pruned search of the same
	// query scans strictly fewer posting entries than the exhaustive one.
	_, est, err := New(ix, nil, Options{}).SearchCtx(context.Background(), query.MustParse("alpha"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesScanned >= est.EntriesScanned {
		t.Fatalf("pruned EntriesScanned %d ≥ exhaustive %d", st.EntriesScanned, est.EntriesScanned)
	}
}

// TestPrunedDeadlineDegrades: an already-expired per-query deadline with
// pruning enabled must degrade gracefully — flagged partial (here empty)
// results and a nil error.
func TestPrunedDeadlineDegrades(t *testing.T) {
	ix, _ := buildPrunedSystem(t)
	e := New(ix, nil, Options{Pruning: true, Deadline: time.Nanosecond})
	res, st, err := e.SearchCtx(context.Background(), query.MustParse("alpha | ctx_a"), 10)
	if err != nil {
		t.Fatalf("expired deadline returned error %v, want degraded result", err)
	}
	if !st.Degraded || st.DegradedReason == "" {
		t.Fatalf("Degraded = %v (%q), want flagged", st.Degraded, st.DegradedReason)
	}
	if len(res) != 0 {
		t.Fatalf("got %d results before any evaluation, want 0", len(res))
	}
}

// TestPrunedZeroAndAllK: k ≤ 0 (return everything) can prune nothing;
// a k larger than the result set must return the full set. Both match
// bruteTopK, with pruning on and off.
func TestPrunedZeroAndAllK(t *testing.T) {
	ix, _ := buildPrunedSystem(t)
	q := query.MustParse("beta | ctx_b")
	engs := []*Engine{New(ix, nil, Options{}), New(ix, nil, Options{Pruning: true})}
	all := bruteTopK(t, engs[0], q, 0)
	for _, e := range engs {
		for _, k := range []int{0, len(all) + 50} {
			got, st, err := e.SearchCtx(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			if st.Pruning != (PruningStats{}) {
				t.Fatalf("pruning=%v k=%d: %+v, want nothing pruned or checked", e.pruning, k, st.Pruning)
			}
			assertBitIdentical(t, fmt.Sprintf("pruning=%v k=%d", e.pruning, k), all, got)
		}
	}
}
