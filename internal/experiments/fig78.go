package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"csrank/internal/query"
)

// PerfPoint is one x-axis point of Figure 7 or 8: mean execution times
// (and cost counters) over a batch of random queries with the same
// keyword count.
type PerfPoint struct {
	Keywords int
	Queries  int
	// Mean execution times.
	Conventional    time.Duration
	ContextViews    time.Duration // zero for Figure 8
	ContextStraight time.Duration
	// Mean inverted-list work (entries scanned + aggregated), the
	// machine-independent cost of §3.2.
	ConvWork     int64
	ViewWork     int64
	StraightWork int64
	// Mean view-scan cost for the view plan.
	ViewGroups int64
	// ViewHits counts queries whose statistics a view answered.
	ViewHits int
	// MeanContextSize is the mean |D_P| of the batch.
	MeanContextSize int64
}

// PerfResult is a full Figure 7 or Figure 8 dataset.
type PerfResult struct {
	Figure string // "7" or "8"
	Points []PerfPoint
}

// Workload is a set of generated context-sensitive queries grouped by
// keyword count.
type Workload struct {
	// ByKeywords[n] holds the queries with n keywords.
	ByKeywords map[int][]query.Query
}

// GenerateWorkload builds the §6.3 random workload: query keywords are
// sampled from citation titles; the simulated ATM maps them to predicate
// terms which become the context; queries are kept when their context
// size falls in [minSize, maxSize). perN queries are collected for each
// keyword count 2..5.
func GenerateWorkload(s *Setup, perN int, minSize, maxSize int64, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	w := Workload{ByKeywords: make(map[int][]query.Query)}
	an := s.Index.AnalyzerFor(s.Index.Schema().ContentField)
	for n := 2; n <= 5; n++ {
		attempts := 0
		for len(w.ByKeywords[n]) < perN && attempts < perN*400 {
			attempts++
			doc := s.Corpus.Docs[rng.Intn(len(s.Corpus.Docs))]
			words := strings.Fields(doc.Title)
			if len(words) < n {
				continue
			}
			rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
			kws := dedupStrings(words)[:0]
			for _, kw := range dedupStrings(words) {
				if len(an.Analyze(kw)) > 0 {
					kws = append(kws, kw)
				}
				if len(kws) == n {
					break
				}
			}
			if len(kws) < n {
				continue
			}
			// Simulated ATM: map the keywords to predicate terms.
			terms := s.Corpus.Onto.MapKeywords(kws)
			if len(terms) == 0 || len(terms) > 3 {
				continue
			}
			ctx := s.Corpus.Onto.Names(terms)
			size := s.WithViews.ContextSize(ctx)
			if size < minSize || size >= maxSize {
				continue
			}
			w.ByKeywords[n] = append(w.ByKeywords[n], query.Query{Keywords: kws, Context: ctx})
		}
	}
	return w
}

func dedupStrings(ss []string) []string {
	seen := make(map[string]bool, len(ss))
	out := make([]string, 0, len(ss))
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// RunFig7 measures the large-context comparison of Figure 7: (1) the
// conventional query Q_t, (2) Q_c answered with materialized views, and
// (3) Q_c evaluated straightforwardly. perN queries per keyword count;
// contexts have size ≥ T_C so views apply.
func RunFig7(s *Setup, perN int) (PerfResult, error) {
	w := GenerateWorkload(s, perN, s.Scale.TC(), int64(s.Scale.NumDocs)+1, s.Scale.Seed+100)
	res := PerfResult{Figure: "7"}
	for n := 2; n <= 5; n++ {
		qs := w.ByKeywords[n]
		if len(qs) == 0 {
			continue
		}
		var p PerfPoint
		p.Keywords = n
		p.Queries = len(qs)
		for _, q := range qs {
			_, st, err := s.WithViews.SearchConventionalCtx(context.Background(), q, 20)
			if err != nil {
				return res, err
			}
			p.Conventional += st.Elapsed
			p.ConvWork += st.ListWork()

			_, st, err = s.WithViews.SearchCtx(context.Background(), q, 20)
			if err != nil {
				return res, err
			}
			p.ContextViews += st.Elapsed
			p.ViewWork += st.ListWork()
			p.ViewGroups += st.ViewGroupsScanned
			if st.UsedView {
				p.ViewHits++
			}
			p.MeanContextSize += st.ContextSize

			_, st, err = s.NoViews.SearchStraightforwardCtx(context.Background(), q, 20)
			if err != nil {
				return res, err
			}
			p.ContextStraight += st.Elapsed
			p.StraightWork += st.ListWork()
		}
		p.normalize()
		res.Points = append(res.Points, p)
	}
	if len(res.Points) == 0 {
		return res, fmt.Errorf("experiments: figure 7 workload came up empty")
	}
	return res, nil
}

// RunFig8 measures the small-context comparison of Figure 8: conventional
// vs straightforward context-sensitive evaluation, for contexts below
// T_C. The selection only guarantees coverage for contexts ≥ T_C, so
// these queries are evaluated straightforwardly (a small context can
// still be incidentally covered when its terms all fall into one view's
// K — a free win in production — but Figure 8 measures the uncovered
// worst case, so the straightforward plan is forced).
func RunFig8(s *Setup, perN int) (PerfResult, error) {
	w := GenerateWorkload(s, perN, 1, s.Scale.TC(), s.Scale.Seed+200)
	res := PerfResult{Figure: "8"}
	for n := 2; n <= 5; n++ {
		qs := w.ByKeywords[n]
		if len(qs) == 0 {
			continue
		}
		var p PerfPoint
		p.Keywords = n
		p.Queries = len(qs)
		for _, q := range qs {
			_, st, err := s.WithViews.SearchConventionalCtx(context.Background(), q, 20)
			if err != nil {
				return res, err
			}
			p.Conventional += st.Elapsed
			p.ConvWork += st.ListWork()

			_, st, err = s.NoViews.SearchStraightforwardCtx(context.Background(), q, 20)
			if err != nil {
				return res, err
			}
			p.ContextStraight += st.Elapsed
			p.StraightWork += st.ListWork()
			if st.UsedView {
				p.ViewHits++
			}
			p.MeanContextSize += st.ContextSize
		}
		p.normalize()
		res.Points = append(res.Points, p)
	}
	if len(res.Points) == 0 {
		return res, fmt.Errorf("experiments: figure 8 workload came up empty")
	}
	return res, nil
}

func (p *PerfPoint) normalize() {
	n := time.Duration(p.Queries)
	p.Conventional /= n
	p.ContextViews /= n
	p.ContextStraight /= n
	p.ConvWork /= int64(p.Queries)
	p.ViewWork /= int64(p.Queries)
	p.StraightWork /= int64(p.Queries)
	p.ViewGroups /= int64(p.Queries)
	p.MeanContextSize /= int64(p.Queries)
}

// Print renders the figure's series.
func (r PerfResult) Print(w io.Writer) {
	if r.Figure == "7" {
		line(w, "Figure 7 — execution time, large-context queries (context ≥ T_C)")
		line(w, "%-9s %-8s %14s %14s %16s %10s %12s", "keywords", "queries",
			"conventional", "Q_c w/ views", "Q_c w/o views", "view hits", "|D_P| mean")
		for _, p := range r.Points {
			line(w, "%-9d %-8d %14s %14s %16s %7d/%-3d %12d",
				p.Keywords, p.Queries, p.Conventional.Round(time.Microsecond),
				p.ContextViews.Round(time.Microsecond),
				p.ContextStraight.Round(time.Microsecond),
				p.ViewHits, p.Queries, p.MeanContextSize)
		}
		line(w, "list work (entries): conventional / views / straightforward")
		for _, p := range r.Points {
			line(w, "  n=%d: %d / %d / %d  (view groups scanned: %d)",
				p.Keywords, p.ConvWork, p.ViewWork, p.StraightWork, p.ViewGroups)
		}
		return
	}
	line(w, "Figure 8 — execution time, small-context queries (context < T_C)")
	line(w, "%-9s %-8s %14s %16s %12s", "keywords", "queries", "conventional", "Q_c (no views)", "|D_P| mean")
	for _, p := range r.Points {
		line(w, "%-9d %-8d %14s %16s %12d",
			p.Keywords, p.Queries, p.Conventional.Round(time.Microsecond),
			p.ContextStraight.Round(time.Microsecond), p.MeanContextSize)
	}
}
