package main

import (
	"context"
	"fmt"
	"time"

	"csrank/internal/core"
	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/query"
)

const topK = 10

// goldHit is one expected (or observed) ranked result.
type goldHit struct {
	DocID int
	Score float64
}

// golden holds the expected top-k of every log query, computed by a
// strategy that shares as little as possible with the served one: a
// single heap-resident engine over all documents, the straightforward
// plan, sequential, exhaustive scoring — against the served sharded,
// mmap-backed, view-accelerated, pruned, cached path.
type golden struct {
	want      [][]goldHit
	buildTime time.Duration
}

func buildGolden(docs []index.Document, log []logQuery) (*golden, error) {
	t0 := time.Now()
	ix, err := index.BuildFrom(corpus.Schema(), 0, docs)
	if err != nil {
		return nil, fmt.Errorf("golden index: %w", err)
	}
	eng := core.New(ix, nil, core.Options{Parallelism: 1})
	g := &golden{want: make([][]goldHit, len(log))}
	for i, lq := range log {
		pq, err := query.Parse(lq.Text)
		if err != nil {
			return nil, fmt.Errorf("golden: query %q: %w", lq.Text, err)
		}
		res, st, err := eng.SearchStraightforwardCtx(context.Background(), pq, topK)
		if err != nil {
			return nil, fmt.Errorf("golden: query %q: %w", lq.Text, err)
		}
		if st.Degraded {
			return nil, fmt.Errorf("golden: query %q degraded: %s", lq.Text, st.DegradedReason)
		}
		if len(res) == 0 {
			return nil, fmt.Errorf("golden: query %q has no hit; the log must only hold answerable queries", lq.Text)
		}
		for _, r := range res {
			g.want[i] = append(g.want[i], goldHit{DocID: int(r.DocID), Score: r.Score})
		}
	}
	g.buildTime = time.Since(t0)
	return g, nil
}

// check compares an observed ranking with the expected one, doc IDs and
// scores bit for bit.
func (g *golden) check(qi int, got []goldHit) error {
	want := g.want[qi]
	if len(got) != len(want) {
		return fmt.Errorf("query %d: %d hits, want %d", qi, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("query %d rank %d: got doc %d score %v, want doc %d score %v",
				qi, i, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
		}
	}
	return nil
}
