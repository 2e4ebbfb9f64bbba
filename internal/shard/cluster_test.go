package shard

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"csrank/internal/analysis"
	"csrank/internal/core"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// randomDocs generates a random collection in the builders' global
// docID numbering (slice position), with mesh predicates and content
// words engineered so contexts and conjunctions are non-trivial.
func randomDocs(rng *rand.Rand, nDocs, nMesh, nWords int) (docs []index.Document, meshTerms, words []string) {
	meshTerms = make([]string, nMesh)
	for i := range meshTerms {
		meshTerms[i] = fmt.Sprintf("m%02d", i)
	}
	words = make([]string, nWords)
	for i := range words {
		words[i] = fmt.Sprintf("w%02d", i)
	}
	docs = make([]index.Document, nDocs)
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
			"title":   fmt.Sprintf("doc-%d", d),
			"content": strings.Join(content, " "),
			"mesh":    strings.Join(mesh, " "),
		}}
	}
	return docs, meshTerms, words
}

func testSchema() index.Schema {
	return index.Schema{
		Fields: []index.FieldSpec{
			{Name: "title", Analyzer: analysis.Keyword(), Stored: true},
			{Name: "content", Analyzer: analysis.Keyword()},
			{Name: "mesh", Analyzer: analysis.Keyword()},
		},
		PredicateField: "mesh",
		ContentField:   "content",
	}
}

func buildIndex(t *testing.T, docs []index.Document, segSize int) *index.Index {
	t.Helper()
	ix, err := index.BuildFrom(testSchema(), segSize, docs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func randomQuery(rng *rand.Rand, meshTerms, words []string) query.Query {
	var q query.Query
	for i := 0; i < 1+rng.Intn(2); i++ {
		q.Keywords = append(q.Keywords, words[rng.Intn(len(words))])
	}
	if rng.Float64() < 0.7 {
		for i := 0; i < 1+rng.Intn(2); i++ {
			q.Context = append(q.Context, meshTerms[rng.Intn(len(meshTerms))])
		}
	}
	return q
}

// shardCatalog materializes one random view per shard so the partial
// statistics of some shards come from views while others fall back.
func shardCatalog(t *testing.T, rng *rand.Rand, ix *index.Index, meshTerms, words []string) *views.Catalog {
	t.Helper()
	if ix.NumDocs() == 0 {
		return nil
	}
	kn := 2 + rng.Intn(3)
	perm := rng.Perm(len(meshTerms))
	key := make([]string, kn)
	for j := range key {
		key[j] = meshTerms[perm[j]]
	}
	tracked := words[:rng.Intn(len(words)+1)]
	v, err := views.Materialize(widetable.FromIndex(ix, words), key, tracked)
	if err != nil {
		t.Fatal(err)
	}
	return views.NewCatalog([]*views.View{v}, 4, 1<<20)
}

// TestShardedBitIdenticalToSingleEngine is the acceptance property
// test: for random corpora and queries, the sharded top-k — across
// shard counts 1/2/4/8, pruning on/off, shards with and without view
// catalogs — is bit-identical to the single-engine
// run: same documents, same score bits, same tie-break order.
func TestShardedBitIdenticalToSingleEngine(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(61 + trial*17)))
		docs, meshTerms, words := randomDocs(rng, 250+rng.Intn(150), 8, 8)
		fullIx := buildIndex(t, docs, 1+rng.Intn(64))

		for _, nShards := range []int{1, 2, 4, 8} {
			parts, globals, err := Split(docs, nShards)
			if err != nil {
				t.Fatal(err)
			}
			shardIxs := make([]*index.Index, nShards)
			cats := make([]*views.Catalog, nShards)
			for i := range parts {
				shardIxs[i] = buildIndex(t, parts[i], 1+rng.Intn(64))
				if rng.Float64() < 0.5 {
					cats[i] = shardCatalog(t, rng, shardIxs[i], meshTerms, words)
				}
			}
			queries := make([]query.Query, 8)
			for i := range queries {
				queries[i] = randomQuery(rng, meshTerms, words)
			}
			for _, pruning := range []bool{false, true} {
				opts := core.Options{Pruning: pruning}
				single := core.New(fullIx, nil, opts)
				engines := make([]*core.Engine, nShards)
				for i := range engines {
					engines[i] = core.New(shardIxs[i], cats[i], opts)
				}
				cluster, err := NewCluster(engines, globals)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range queries {
					for _, k := range []int{0, 3, 25} {
						want, wantSt, err := single.Search(context.Background(), q, k, "")
						if err != nil {
							t.Fatal(err)
						}
						got, sum, err := cluster.Search(context.Background(), q, k)
						if err != nil {
							t.Fatal(err)
						}
						// Same executor, same report: |D_P| sums exactly over the
						// shards, nothing degrades, and the plan agrees wherever
						// the statistics source does (the single engine has no
						// catalog; shards with one answer from the view).
						if sum.Agg.ContextSize != wantSt.ContextSize || sum.Agg.Degraded != wantSt.Degraded {
							t.Fatalf("shards=%d q=%v: |D_P|=%d degraded=%v, want %d/%v",
								nShards, q, sum.Agg.ContextSize, sum.Agg.Degraded, wantSt.ContextSize, wantSt.Degraded)
						}
						if !sum.Agg.UsedView && sum.Agg.Plan != wantSt.Plan {
							t.Fatalf("shards=%d q=%v: plan %q, want %q", nShards, q, sum.Agg.Plan, wantSt.Plan)
						}
						if len(got) != len(want) {
							t.Fatalf("shards=%d pruning=%v q=%v k=%d: %d hits, want %d",
								nShards, pruning, q, k, len(got), len(want))
						}
						for i := range want {
							if got[i].Global != want[i].DocID || got[i].Score != want[i].Score {
								t.Fatalf("shards=%d pruning=%v q=%v k=%d rank %d: (%d, %v), want (%d, %v)",
									nShards, pruning, q, k, i,
									got[i].Global, got[i].Score, want[i].DocID, want[i].Score)
							}
							if s := ShardOf(got[i].Global, nShards); s != got[i].Slice {
								t.Fatalf("hit claims shard %d, partitioner says %d", got[i].Slice, s)
							}
						}
						if q.IsContextual() && len(sum.PerShard) != nShards {
							t.Fatalf("expected %d per-shard reports, got %d", nShards, len(sum.PerShard))
						}
					}
				}
			}
		}
	}
}

// TestClusterContextSizeAggregation: the merged ContextSize must equal
// the single engine's |D_P| (partial counts over disjoint subsets).
func TestClusterContextSizeAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	docs, meshTerms, words := randomDocs(rng, 300, 6, 6)
	fullIx := buildIndex(t, docs, 16)
	single := core.New(fullIx, nil, core.Options{})

	parts, globals, err := Split(docs, 4)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.Engine, 4)
	for i := range engines {
		engines[i] = core.New(buildIndex(t, parts[i], 16), nil, core.Options{})
	}
	cluster, err := NewCluster(engines, globals)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Keywords: []string{words[0]}, Context: meshTerms[:2]}
	_, wantSt, err := single.Search(context.Background(), q, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	_, sum, err := cluster.Search(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Agg.ContextSize != wantSt.ContextSize {
		t.Fatalf("merged ContextSize %d, want %d", sum.Agg.ContextSize, wantSt.ContextSize)
	}
	if sum.Agg.ResultSize != wantSt.ResultSize {
		t.Fatalf("merged ResultSize %d, want %d", sum.Agg.ResultSize, wantSt.ResultSize)
	}
}

// TestNewClusterValidation: the partition invariants the merge rests on
// are enforced at construction.
func TestNewClusterValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	docs, _, _ := randomDocs(rng, 50, 4, 4)
	ix := buildIndex(t, docs, 16)
	eng := core.New(ix, nil, core.Options{})

	if _, err := NewCluster(nil, nil); err == nil {
		t.Fatal("empty cluster accepted")
	}
	// Wrong document count.
	bad := GlobalMaps(49, 1)
	if _, err := NewCluster([]*core.Engine{eng}, bad); err == nil {
		t.Fatal("docID map shorter than engine accepted")
	}
	// Not strictly increasing.
	g := GlobalMaps(50, 1)
	g[0][3], g[0][4] = g[0][4], g[0][3]
	if _, err := NewCluster([]*core.Engine{eng}, g); err == nil {
		t.Fatal("non-monotone docID map accepted")
	}
	// Duplicate global across shards.
	parts, globals, err := Split(docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	e0 := core.New(buildIndex(t, parts[0], 16), nil, core.Options{})
	e1 := core.New(buildIndex(t, parts[1], 16), nil, core.Options{})
	globals[1][0] = globals[0][0]
	// Restore monotonicity of shard 1 if broken by the overwrite.
	if len(globals[1]) > 1 && globals[1][0] >= globals[1][1] {
		globals[1][1] = globals[1][0] + 1
	}
	if _, err := NewCluster([]*core.Engine{e0, e1}, globals); err == nil {
		t.Fatal("overlapping docID maps accepted")
	}
}

// TestLocate: every global docID maps back to its (shard, local) pair,
// and unknown docIDs report !ok.
func TestLocate(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	docs, _, _ := randomDocs(rng, 120, 4, 4)
	parts, globals, err := Split(docs, 3)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.Engine, 3)
	for i := range engines {
		engines[i] = core.New(buildIndex(t, parts[i], 16), nil, core.Options{})
	}
	c, err := NewCluster(engines, globals)
	if err != nil {
		t.Fatal(err)
	}
	for g := uint32(0); g < 120; g++ {
		s, local, ok := c.Locate(g)
		if !ok {
			t.Fatalf("docID %d not located", g)
		}
		if want := ShardOf(g, 3); s != want {
			t.Fatalf("docID %d located on shard %d, partitioner says %d", g, s, want)
		}
		if globals[s][local] != g {
			t.Fatalf("docID %d located at local %d of shard %d, which is global %d", g, local, s, globals[s][local])
		}
	}
	if _, _, ok := c.Locate(120); ok {
		t.Fatal("docID outside the collection located")
	}
}

// TestSplitPartition: Split covers every document exactly once with
// strictly increasing local→global maps matching GlobalMaps.
func TestSplitPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	docs, _, _ := randomDocs(rng, 333, 4, 4)
	for _, n := range []int{1, 2, 5, 8} {
		parts, globals, err := Split(docs, n)
		if err != nil {
			t.Fatal(err)
		}
		want := GlobalMaps(len(docs), n)
		seen := make([]bool, len(docs))
		total := 0
		for s := range globals {
			if len(parts[s]) != len(globals[s]) {
				t.Fatalf("n=%d shard %d: %d docs but %d globals", n, s, len(parts[s]), len(globals[s]))
			}
			for j, g := range globals[s] {
				if want[s][j] != g {
					t.Fatalf("n=%d shard %d: globals disagree with GlobalMaps at %d", n, s, j)
				}
				if j > 0 && globals[s][j-1] >= g {
					t.Fatalf("n=%d shard %d: not strictly increasing", n, s)
				}
				if seen[g] {
					t.Fatalf("n=%d: docID %d assigned twice", n, g)
				}
				seen[g] = true
				// The shard really holds that document's content.
				if parts[s][j].Fields["title"] != docs[g].Fields["title"] {
					t.Fatalf("n=%d shard %d local %d: wrong document", n, s, j)
				}
				total++
			}
		}
		if total != len(docs) {
			t.Fatalf("n=%d: %d docs partitioned, want %d", n, total, len(docs))
		}
	}
	if _, _, err := Split(docs, 0); err == nil {
		t.Fatal("Split into 0 shards accepted")
	}
}
