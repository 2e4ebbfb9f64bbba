package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"csrank/internal/analysis"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// TestRandomizedPlanEquivalence is a randomized end-to-end differential
// test: on random collections with random view catalogs, every contextual
// query must produce identical rankings and scores through the view plan
// and the straightforward plan, under every scorer.
func TestRandomizedPlanEquivalence(t *testing.T) {
	scorers := ranking.All()
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 31))
		ix, meshTerms, words := randomCollection(t, rng, 400, 8, 10)
		tbl := widetable.FromIndex(ix, words)

		// Random catalog: 3 views over random predicate subsets; random
		// tracked-word subsets so the fallback path gets exercised.
		var vs []*views.View
		for i := 0; i < 3; i++ {
			kn := 2 + rng.Intn(4)
			perm := rng.Perm(len(meshTerms))
			k := make([]string, kn)
			for j := range k {
				k[j] = meshTerms[perm[j]]
			}
			tracked := words[:rng.Intn(len(words)+1)]
			v, err := views.Materialize(tbl, k, tracked)
			if err != nil {
				t.Fatal(err)
			}
			vs = append(vs, v)
		}
		cat := views.NewCatalog(vs, 10, 1<<20)

		for _, sc := range scorers {
			withViews := New(ix, cat, Options{Scorer: sc})
			noViews := New(ix, nil, Options{Scorer: sc})
			for qn := 0; qn < 10; qn++ {
				q := randomQuery(rng, meshTerms, words)
				a, stA, errA := withViews.Search(context.Background(), q, 0, "")
				b, stB, errB := noViews.Search(context.Background(), q, 0, PlanStraightforward)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("trial %d %s: error mismatch: %v vs %v", trial, sc.Name(), errA, errB)
				}
				if errA != nil {
					continue
				}
				if stA.ResultSize != stB.ResultSize {
					t.Fatalf("trial %d %s q=%v: result sizes %d vs %d",
						trial, sc.Name(), q, stA.ResultSize, stB.ResultSize)
				}
				if len(a) != len(b) {
					t.Fatalf("trial %d %s q=%v: lengths %d vs %d", trial, sc.Name(), q, len(a), len(b))
				}
				for i := range a {
					if a[i].DocID != b[i].DocID || math.Abs(a[i].Score-b[i].Score) > 1e-9 {
						t.Fatalf("trial %d %s q=%v rank %d: %+v vs %+v",
							trial, sc.Name(), q, i, a[i], b[i])
					}
				}
			}
		}
	}
}

func randomCollection(t *testing.T, rng *rand.Rand, nDocs, nMesh, nWords int) (*index.Index, []string, []string) {
	t.Helper()
	meshTerms := make([]string, nMesh)
	for i := range meshTerms {
		meshTerms[i] = fmt.Sprintf("m%02d", i)
	}
	words := make([]string, nWords)
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
	ix, err := index.BuildFrom(schema, 1+rng.Intn(64), docs)
	if err != nil {
		t.Fatal(err)
	}
	return ix, meshTerms, words
}

func randomQuery(rng *rand.Rand, meshTerms, words []string) query.Query {
	nk := 1 + rng.Intn(3)
	nc := 1 + rng.Intn(3)
	q := query.Query{}
	for i := 0; i < nk; i++ {
		q.Keywords = append(q.Keywords, words[rng.Intn(len(words))])
	}
	for i := 0; i < nc; i++ {
		q.Context = append(q.Context, meshTerms[rng.Intn(len(meshTerms))])
	}
	return q
}

func TestExplain(t *testing.T) {
	ix, _, _ := motivatingCollection(t)
	tbl := widetable.FromIndex(ix, []string{"pancreas"})
	v, err := views.Materialize(tbl, []string{"digestive_system"}, []string{"pancreas"})
	if err != nil {
		t.Fatal(err)
	}
	e := New(ix, views.NewCatalog([]*views.View{v}, 100, 4096), Options{})

	ex, err := e.Explain(query.MustParse("pancreas leukemia | digestive_system"))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan != PlanView {
		t.Errorf("Plan = %s", ex.Plan)
	}
	if len(ex.TrackedKeywords) != 1 || ex.TrackedKeywords[0] != "pancreas" {
		t.Errorf("Tracked = %v", ex.TrackedKeywords)
	}
	if len(ex.FallbackKeywords) != 1 || ex.FallbackKeywords[0] != "leukemia" {
		t.Errorf("Fallback = %v", ex.FallbackKeywords)
	}
	if ex.StraightforwardBound != 302*3 {
		t.Errorf("Bound = %d, want %d", ex.StraightforwardBound, 302*3)
	}
	if !strings.Contains(ex.String(), "plan: view") {
		t.Errorf("String = %q", ex.String())
	}

	// Conventional for context-free queries.
	ex, err = e.Explain(query.MustParse("pancreas"))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan != PlanConventional {
		t.Errorf("Plan = %s", ex.Plan)
	}
	// Straightforward for uncovered contexts.
	ex, err = e.Explain(query.MustParse("pancreas | neoplasms"))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Plan != PlanStraightforward {
		t.Errorf("Plan = %s", ex.Plan)
	}
	// Analysis errors propagate.
	if _, err := e.Explain(query.Query{}); err == nil {
		t.Error("empty query accepted")
	}
}
