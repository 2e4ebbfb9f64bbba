package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/ranking"
)

// bruteTopK is the test reference for the scoring walk: statistics from
// the engine's own StatsFor, the result set materialized by
// postings.Intersect over the keyword and predicate lists, every member
// scored by ScoreIndexed, a full sort by worseThan, then the cut to k
// (k ≤ 0 keeps everything). It shares no code with the walk past the
// scorer and the statistics.
func bruteTopK(t *testing.T, e *Engine, q query.Query, k int) []Result {
	t.Helper()
	cs, _, err := e.StatsFor(context.Background(), q)
	if err != nil {
		t.Fatalf("%v: stats: %v", q, err)
	}
	a, err := e.analyze(q)
	if err != nil {
		t.Fatalf("%v: %v", q, err)
	}
	kw, preds := e.lists(a)
	res := postings.Intersect(append(kw, preds...), nil)
	qs := ranking.NewQueryStats(a.kwStream)
	cs.IndexTerms(a.kwTerms)
	tf := make([]int64, len(kw))
	out := []Result{}
	for i, d := range res.DocIDs {
		for j := range kw {
			tf[j] = int64(res.TFs[j][i])
		}
		ds := ranking.DocStats{TFs: tf, Len: e.ix.FieldLen(index.DocID(d), e.contentField)}
		out = append(out, Result{DocID: d, Score: e.scorer.ScoreIndexed(qs, ds, cs)})
	}
	sort.Slice(out, func(i, j int) bool { return worseThan(out[j], out[i]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

var (
	walkOnce   sync.Once
	walkIx     *index.Index
	walkCorpus *corpus.Corpus
	walkErr    error
)

// walkCorpusIndex generates a 20 000-document corpus with the experiment
// generator (no benchmark topics) and indexes it, once per process.
func walkCorpusIndex(t *testing.T) (*index.Index, *corpus.Corpus) {
	t.Helper()
	walkOnce.Do(func() {
		cfg := corpus.DefaultConfig()
		cfg.NumTopics = 0
		if walkCorpus, walkErr = corpus.Generate(cfg); walkErr == nil {
			walkIx, walkErr = walkCorpus.BuildIndex(0)
		}
	})
	if walkErr != nil {
		t.Fatal(walkErr)
	}
	return walkIx, walkCorpus
}

// randomWalkQuery draws 1–4 keywords from one document's text and 0–2
// predicates from its annotations, so most conjunctions are non-empty;
// one query in ten swaps in a term absent from the index.
func randomWalkQuery(rng *rand.Rand, c *corpus.Corpus) query.Query {
	doc := c.Docs[rng.Intn(len(c.Docs))]
	words := strings.Fields(doc.Title + " " + doc.Abstract)
	var q query.Query
	for n := 1 + rng.Intn(4); n > 0; n-- {
		q.Keywords = append(q.Keywords, words[rng.Intn(len(words))])
	}
	for n := rng.Intn(3); n > 0 && len(doc.Mesh) > 0; n-- {
		q.Context = append(q.Context, doc.Mesh[rng.Intn(len(doc.Mesh))])
	}
	if rng.Intn(10) == 0 {
		q.Keywords = append(q.Keywords, "zzznosuchword")
	}
	return q
}

// TestWalkMatchesBruteForce drives the walk with random queries over a
// generated corpus, pruning on and off, k ∈ {0, 1, 10, 20, 100}, every
// scorer in rotation: each ranking must equal bruteTopK bit for bit.
func TestWalkMatchesBruteForce(t *testing.T) {
	ix, c := walkCorpusIndex(t)
	rng := rand.New(rand.NewSource(7))
	var engs [][]*Engine
	for _, sc := range ranking.All() {
		engs = append(engs, []*Engine{New(ix, nil, Options{Scorer: sc}), New(ix, nil, Options{Scorer: sc, Pruning: true})})
	}
	ctx := context.Background()
	for n := 0; n < 200; n++ {
		pair := engs[n%len(engs)]
		q := randomWalkQuery(rng, c)
		if _, err := pair[0].analyze(q); err != nil {
			continue // every drawn keyword was a stopword
		}
		all := bruteTopK(t, pair[0], q, 0)
		for _, e := range pair {
			for _, k := range []int{0, 1, 10, 20, 100} {
				want := all
				if k > 0 && len(want) > k {
					want = want[:k]
				}
				got, _, err := e.Search(ctx, q, k, "")
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, fmt.Sprintf("%s pruning=%v k=%d %v", e.scorer.Name(), e.pruning, k, q), want, got)
			}
		}
	}
}

// TestWalkChargesLikeIntersect pins the cost model the §6 experiments
// report: with pruning off the scoring phase alone (SearchWithStats
// under given statistics) charges exactly what postings.Intersect
// charges over the same lists — every counter, TF-less conjunctions
// (Intersect's word-AND kernel) included — and ResultSize is the
// conjunction size. With pruning on ResultSize is at most that.
func TestWalkChargesLikeIntersect(t *testing.T) {
	wix, c := walkCorpusIndex(t)
	rng := rand.New(rand.NewSource(11))
	var queries []query.Query
	for len(queries) < 150 {
		queries = append(queries, randomWalkQuery(rng, c))
	}
	pix, _ := buildPrunedSystem(t)
	ctx := context.Background()
	for _, tc := range []struct {
		ix      *index.Index
		queries []string
	}{
		{wix, nil},
		{pix, []string{"alpha", "alpha beta", "alpha | ctx_a", "beta | ctx_b", "alpha beta | ctx_even ctx_flip", "beta | ctx_even"}},
	} {
		qs := queries
		if tc.queries != nil {
			qs = nil
			for _, s := range tc.queries {
				qs = append(qs, query.MustParse(s))
			}
		}
		plain := New(tc.ix, nil, Options{})
		pruned := New(tc.ix, nil, Options{Pruning: true})
		for _, q := range qs {
			a, err := plain.analyze(q)
			if err != nil {
				continue
			}
			cs, _, err := plain.StatsFor(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			kw, preds := plain.lists(a)
			lists := append(kw, preds...)
			var want postings.Stats
			res := postings.Intersect(lists, &want)
			_, got, err := plain.SearchWithStats(ctx, q, 10, cs)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%v", q)
			if got.ResultSize != res.Len() || got.Stats != want {
				t.Fatalf("%s: walk visited %d members and charged %+v, Intersect found %d and charged %+v",
					label, got.ResultSize, got.Stats, res.Len(), want)
			}
			_, pst, err := pruned.SearchWithStats(ctx, q, 10, cs)
			if err != nil {
				t.Fatal(err)
			}
			if pst.ResultSize > res.Len() {
				t.Fatalf("%s: pruning walk visited %d members of a %d-member conjunction", label, pst.ResultSize, res.Len())
			}
		}
	}
}
