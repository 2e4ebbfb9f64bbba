package core

import (
	"fmt"
	"strings"

	"csrank/internal/query"
)

// Explanation describes how the engine would evaluate a query, without
// executing it — the debugging surface for "why was this plan chosen?".
type Explanation struct {
	// Plan is the strategy Search would pick.
	Plan Plan
	// AnalyzedKeywords are the content terms after analysis.
	AnalyzedKeywords []string
	// Context is the normalized context specification.
	Context []string
	// ViewK is the chosen view's keyword set (nil if no view).
	ViewK []string
	// ViewSize is the chosen view's non-empty tuple count.
	ViewSize int
	// TrackedKeywords and FallbackKeywords split the analyzed keywords by
	// whether the chosen view stores their df/tc columns.
	TrackedKeywords  []string
	FallbackKeywords []string
	// ContextListLengths are the |L_m| of the context predicates — the
	// terms of the straightforward plan's cost bound.
	ContextListLengths []int
	// StraightforwardBound is the Proposition 3.1 cost bound
	// (n+1)·Σ|L_m| the cost-based policy compares against.
	StraightforwardBound int64
}

// Explain analyzes q and reports the evaluation plan Search would choose,
// with the inputs to that choice.
func (e *Engine) Explain(q query.Query) (Explanation, error) {
	var ex Explanation
	a, err := e.analyze(q)
	if err != nil {
		return ex, err
	}
	ex.AnalyzedKeywords = a.kwTerms
	ex.Context = a.context
	if len(a.context) == 0 {
		ex.Plan = PlanConventional
		return ex, nil
	}
	_, preds := e.lists(a)
	for _, l := range preds {
		n := 0
		if l != nil {
			n = l.Len()
		}
		ex.ContextListLengths = append(ex.ContextListLengths, n)
	}
	ex.StraightforwardBound = straightforwardBound(a, preds)
	ex.Plan = PlanStraightforward
	if v := e.chooseView(e.catalog.Load(), a, preds); v != nil {
		ex.Plan = PlanView
		ex.ViewK = v.K()
		ex.ViewSize = v.Size()
		for _, w := range a.kwTerms {
			if v.TracksWord(w) {
				ex.TrackedKeywords = append(ex.TrackedKeywords, w)
			} else {
				ex.FallbackKeywords = append(ex.FallbackKeywords, w)
			}
		}
	}
	return ex, nil
}

// ExplainSlices renders every slice's Explain of q, each headed by its
// shard number when there is more than one slice.
func ExplainSlices(slices []Slice, q query.Query) (string, error) {
	var b strings.Builder
	for i, sl := range slices {
		ex, err := sl.Eng.Explain(q)
		if err != nil {
			return "", err
		}
		if len(slices) > 1 {
			fmt.Fprintf(&b, "shard %d:\n", i)
		}
		b.WriteString(ex.String())
	}
	return b.String(), nil
}

// String renders the explanation as a compact multi-line report.
func (ex Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\n", ex.Plan)
	fmt.Fprintf(&b, "keywords: %s\n", strings.Join(ex.AnalyzedKeywords, " "))
	if len(ex.Context) > 0 {
		fmt.Fprintf(&b, "context: %s (list lengths %v, straightforward bound %d)\n",
			strings.Join(ex.Context, " "), ex.ContextListLengths, ex.StraightforwardBound)
	}
	if ex.Plan == PlanView {
		fmt.Fprintf(&b, "view: |K|=%d size=%d tracked=%v fallback=%v\n",
			len(ex.ViewK), ex.ViewSize, ex.TrackedKeywords, ex.FallbackKeywords)
	}
	return b.String()
}
