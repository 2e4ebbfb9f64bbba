package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/query"
)

// contextStatsIndex builds a 24 000-document index shaped like one served
// shard: two nested pairs of predicate terms whose conjunctions are half
// the collection (huge: dense containers) and a sixteenth of it (large:
// sorted arrays), one pair selecting 47 documents (small), and two
// keywords in 10 % and 3 % of the documents.
func contextStatsIndex(b *testing.B) *index.Index {
	b.Helper()
	const nDocs = 24000
	docs := make([]index.Document, nDocs)
	var sb, mesh strings.Builder
	for i := range docs {
		sb.Reset()
		mesh.Reset()
		if i%10 == 3 {
			sb.WriteString(strings.Repeat("alpha ", 1+i%5))
		}
		if i%33 == 7 {
			sb.WriteString(strings.Repeat("beta ", 1+i%3))
		}
		sb.WriteString(strings.Repeat("pad ", 20+i%17))
		for _, p := range []struct {
			term string
			mod  int
		}{{"huge_a", 4}, {"huge_b", 3}} {
			if i%p.mod != 0 {
				mesh.WriteString(p.term + " ")
			}
		}
		for _, p := range []struct {
			term string
			mod  int
		}{{"large_a", 8}, {"large_b", 16}, {"small_a", 512}} {
			if i%p.mod == 3 {
				mesh.WriteString(p.term + " ")
			}
		}
		docs[i] = index.Document{Fields: map[string]string{
			"title": fmt.Sprintf("d%d", i), "content": sb.String(), "mesh": mesh.String(),
		}}
	}
	ix, err := index.BuildFrom(corpus.Schema(), 0, docs)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkContextStats measures the statistics phase of the
// straightforward plan — what every contextual query pays once no view
// covers its context: materialize D_P, aggregate over it, one df/tc probe
// per keyword — by context size and keyword count.
func BenchmarkContextStats(b *testing.B) {
	e := New(contextStatsIndex(b), nil, Options{})
	contexts := []struct{ name, preds string }{
		{"huge", "huge_a huge_b"},
		{"large", "large_a large_b"},
		{"small", "large_a small_a"},
		{"one-term", "large_a"},
	}
	for _, c := range contexts {
		for _, kw := range []string{"alpha", "alpha beta"} {
			q := query.MustParse(kw + " | " + c.preds)
			name := fmt.Sprintf("%s/kw=%d", c.name, len(strings.Fields(kw)))
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cs, st, err := e.StatsFor(context.Background(), q)
					if err != nil || st.Plan != PlanStraightforward || cs.N == 0 {
						b.Fatalf("plan %q, |D_P| %d, err %v", st.Plan, cs.N, err)
					}
				}
			})
		}
	}
}
