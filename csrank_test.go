package csrank

import (
	"fmt"
	"testing"
)

// buildDemo builds the motivating-example collection through the public
// API.
func buildDemo(t *testing.T, opts BuildOptions) *Engine {
	t.Helper()
	b := NewBuilder()
	b.Add(Document{
		Title:      "Complications following pancreas transplant",
		Body:       "pancreas pancreas transplant complications leukemia",
		Predicates: []string{"digestive_system"},
	})
	b.Add(Document{
		Title:      "Organ failure in patients with acute leukemia",
		Body:       "leukemia leukemia organ failure pancreas",
		Predicates: []string{"digestive_system"},
	})
	for i := 0; i < 400; i++ {
		b.Add(Document{
			Title:      fmt.Sprintf("Leukemia cohort study %d", i),
			Body:       "leukemia lymphoma tumor outcomes",
			Predicates: []string{"neoplasms"},
		})
	}
	for i := 0; i < 200; i++ {
		body := "pancreas liver gastric surgery"
		if i < 4 {
			body += " leukemia"
		}
		b.Add(Document{
			Title:      fmt.Sprintf("Digestive surgery outcomes %d", i),
			Body:       body,
			Predicates: []string{"digestive_system"},
		})
	}
	if b.Len() != 602 {
		t.Fatalf("builder len = %d", b.Len())
	}
	e, err := b.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPublicAPIRankReversal(t *testing.T) {
	e := buildDemo(t, BuildOptions{})
	if e.NumDocs() != 602 {
		t.Fatalf("NumDocs = %d", e.NumDocs())
	}
	if e.NumViews() == 0 {
		t.Fatal("no views materialized")
	}
	q := "pancreas leukemia | digestive_system"

	conv, convSt, err := e.SearchConventional(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, ctxSt, err := e.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if convSt.Plan != "conventional" {
		t.Errorf("conv plan = %s", convSt.Plan)
	}
	if ctxSt.Plan != "view" || !ctxSt.UsedView {
		t.Errorf("ctx stats = %+v, want view plan", ctxSt)
	}
	if conv[0].DocID != 0 {
		t.Errorf("conventional top = %+v, want the pancreas citation", conv[0])
	}
	if ctx[0].DocID != 1 {
		t.Errorf("context-sensitive top = %+v, want the leukemia citation", ctx[0])
	}
	if ctx[0].Title == "" {
		t.Error("hit title not populated")
	}
	if ctxSt.ContextSize != 202 {
		t.Errorf("ContextSize = %d", ctxSt.ContextSize)
	}
}

func TestPublicAPIScorers(t *testing.T) {
	for _, s := range []Scorer{PivotedTFIDF, BM25, DirichletLM} {
		e := buildDemo(t, BuildOptions{Scorer: s, DisableViews: true})
		hits, _, err := e.Search("leukemia | neoplasms", 3)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(hits) != 3 {
			t.Fatalf("%s: hits = %d", s, len(hits))
		}
	}
	b := NewBuilder()
	b.Add(Document{Title: "x", Body: "y"})
	if _, err := b.Build(BuildOptions{Scorer: "nope"}); err == nil {
		t.Error("unknown scorer accepted")
	}
}

func TestPublicAPIDisableViews(t *testing.T) {
	e := buildDemo(t, BuildOptions{DisableViews: true})
	if e.NumViews() != 0 {
		t.Fatal("views materialized despite DisableViews")
	}
	_, st, err := e.Search("pancreas leukemia | digestive_system", 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan != "straightforward" {
		t.Errorf("plan = %s", st.Plan)
	}
}

func TestPublicAPIStraightforwardAgreesWithView(t *testing.T) {
	e := buildDemo(t, BuildOptions{})
	q := "pancreas leukemia | digestive_system"
	a, _, err := e.Search(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e.SearchStraightforward(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPublicAPIParseErrors(t *testing.T) {
	e := buildDemo(t, BuildOptions{DisableViews: true})
	for _, q := range []string{"", "| ctx", "a | b | c"} {
		if _, _, err := e.Search(q, 5); err == nil {
			t.Errorf("Search(%q) accepted", q)
		}
		if _, _, err := e.SearchConventional(q, 5); err == nil {
			t.Errorf("SearchConventional(%q) accepted", q)
		}
		if _, _, err := e.SearchStraightforward(q, 5); err == nil {
			t.Errorf("SearchStraightforward(%q) accepted", q)
		}
	}
}

func TestPublicAPIContextSize(t *testing.T) {
	e := buildDemo(t, BuildOptions{})
	if got := e.ContextSize("digestive_system"); got != 202 {
		t.Errorf("ContextSize = %d", got)
	}
	if got := e.ContextSize("digestive_system neoplasms"); got != 0 {
		t.Errorf("disjoint ContextSize = %d", got)
	}
}

func TestPublicAPISaveOpen(t *testing.T) {
	e := buildDemo(t, BuildOptions{})
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	assertPagedShards(t, dir, 1, "index.gob")
	got, err := OpenSharded(dir, BuildOptions{Scorer: PivotedTFIDF})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != e.NumDocs() || got.NumViews() != e.NumViews() {
		t.Fatalf("reloaded engine: docs %d views %d", got.NumDocs(), got.NumViews())
	}
	q := "pancreas leukemia | digestive_system"
	want, _, err := e.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	hits, st, err := got.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedView {
		t.Error("reloaded engine did not use views")
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("rank %d differs after reload: %+v vs %+v", i, hits[i], want[i])
		}
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := OpenSharded(t.TempDir(), BuildOptions{}); err == nil {
		t.Error("OpenSharded of empty dir succeeded")
	}
}

func TestOpenWithoutViews(t *testing.T) {
	e := buildDemo(t, BuildOptions{DisableViews: true})
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := OpenSharded(dir, BuildOptions{Scorer: BM25})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumViews() != 0 {
		t.Error("phantom views after reload")
	}
	if _, _, err := got.Search("leukemia", 3); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionTimeReported(t *testing.T) {
	e := buildDemo(t, BuildOptions{})
	if e.SelectionTime() <= 0 {
		t.Error("SelectionTime not recorded")
	}
	e2 := buildDemo(t, BuildOptions{DisableViews: true})
	if e2.SelectionTime() != 0 {
		t.Error("SelectionTime should be zero without views")
	}
}

// TestPublicAPICacheAndCostOptions: with CostBasedPlanning on, a query and
// its exact repeat report the same plan and return the ranking of an
// engine built with default options — nothing below the engine memoizes
// a repeat, and cost-based planning changes where the statistics come
// from, never the ranking.
func TestPublicAPICacheAndCostOptions(t *testing.T) {
	e := buildDemo(t, BuildOptions{CostBasedPlanning: true})
	q := "pancreas leukemia | digestive_system"
	hits1, st1, err := e.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	hits2, st2, err := e.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Plan != st2.Plan || st1.UsedView != st2.UsedView {
		t.Errorf("repeat ran plan %q (view %v), first run %q (view %v)",
			st2.Plan, st2.UsedView, st1.Plan, st1.UsedView)
	}
	want, _, err := buildDemo(t, BuildOptions{}).Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits1) != len(want) || len(hits2) != len(want) {
		t.Fatalf("hit counts %d, %d; want %d", len(hits1), len(hits2), len(want))
	}
	for i := range want {
		if hits1[i].DocID != want[i].DocID || hits2[i].DocID != want[i].DocID {
			t.Fatalf("rank %d differs with the cost option", i)
		}
	}
}

func TestPublicAPIExplain(t *testing.T) {
	e := buildDemo(t, BuildOptions{})
	out, err := e.Explain("pancreas leukemia | digestive_system")
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Fatal("empty explanation")
	}
	if _, err := e.Explain("a | b | c"); err == nil {
		t.Error("unparseable query accepted")
	}
	out, err = e.Explain("leukemia")
	if err != nil {
		t.Fatal(err)
	}
	if out == "" {
		t.Error("empty explanation for conventional query")
	}
}
