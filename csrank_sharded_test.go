package csrank

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"csrank/internal/core"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/selection"
	"csrank/internal/shard"
	"csrank/internal/snapshot"
	"csrank/internal/views"
)

// shardedDemoQueries exercise contextual, conventional-shape and
// tie-break-heavy cases over the demo collection.
var shardedDemoQueries = []string{
	"pancreas leukemia | digestive_system",
	"pancreas leukemia",
	"leukemia | neoplasms",
	"leukemia lymphoma | neoplasms",
	"surgery outcomes | digestive_system",
	"leukemia",
}

// rebuildDemoDocs queues the same documents buildDemo indexes.
func rebuildDemoDocs(b *Builder) {
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
}

// referenceSearch ranks q on one core engine over an index of all the
// demo documents, built here rather than through the public builders, so
// the engines under test are checked against something other than
// themselves.
func referenceSearch(t *testing.T, opts BuildOptions, q string, k int) []Hit {
	t.Helper()
	b := NewBuilder()
	rebuildDemoDocs(b)
	ix, err := index.BuildFrom(schema(), 0, b.docs)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := opts.Scorer.build()
	if err != nil {
		t.Fatal(err)
	}
	pq, err := query.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := core.New(ix, nil, opts.coreOptions(sc)).Search(context.Background(), pq, k, "")
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]Hit, len(res))
	for i, r := range res {
		hits[i] = Hit{DocID: int(r.DocID), Title: ix.StoredField(r.DocID, "title"), Score: r.Score}
	}
	return hits
}

// sameHits fails the test unless got equals want hit for hit.
func sameHits(t *testing.T, what string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestBuildShardedMatchesBuild: the public engine must return the same
// hits — docIDs, titles, scores — as one core engine over an index of
// all the documents, for several shard counts (Build is the one-shard
// case), with and without pruning.
func TestBuildShardedMatchesBuild(t *testing.T) {
	for _, pruning := range []bool{false, true} {
		opts := BuildOptions{Pruning: pruning}
		for _, shards := range []int{1, 2, 4} {
			b := NewBuilder()
			rebuildDemoDocs(b)
			se, err := b.BuildSharded(shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			if se.NumShards() != shards || se.NumDocs() != 602 {
				t.Fatalf("sharded engine %d shards / %d docs, want %d / 602",
					se.NumShards(), se.NumDocs(), shards)
			}
			if se.NumViews() == 0 {
				t.Errorf("shards=%d: no views materialized on any shard", shards)
			}
			for _, q := range shardedDemoQueries {
				got, st, per, err := se.SearchDetailed(context.Background(), q, 10)
				if err != nil {
					t.Fatal(err)
				}
				if len(per) != shards {
					t.Fatalf("%d per-shard reports for %d shards", len(per), shards)
				}
				sameHits(t, fmt.Sprintf("shards=%d q=%q", shards, q), got, referenceSearch(t, opts, q, 10))
				if st.Elapsed <= 0 {
					t.Errorf("shards=%d q=%q: non-positive Elapsed", shards, q)
				}
			}
		}
	}
}

// TestShardedWrapAndRoundTrip: Save writes every shard index as paged
// format v4 under a cluster manifest, and Save + OpenSharded round-trips
// bit-identically.
func TestShardedWrapAndRoundTrip(t *testing.T) {
	b := NewBuilder()
	rebuildDemoDocs(b)
	se, err := b.BuildSharded(3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := se.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.LoadManifest(dir); err != nil {
		t.Fatalf("saved dir has no cluster manifest: %v", err)
	}
	assertPagedShards(t, dir, 3, "index.gob")
	re, err := OpenSharded(dir, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Generations(); len(got) != 3 {
		t.Fatalf("%d generations", len(got))
	}
	for _, q := range shardedDemoQueries {
		want, _, err := se.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := re.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, fmt.Sprintf("q=%q", q), got, want)
	}
}

// TestLegacySingleDirOpensAsOneShard: a directory in the single-engine
// layout older builds wrote — index.gob and views.gob at the root, no
// cluster.json — opens as a one-shard cluster that ranks like a fresh
// build under every scorer, and Save rewrites it in the cluster layout
// with the same view catalog.
func TestLegacySingleDirOpensAsOneShard(t *testing.T) {
	b := NewBuilder()
	rebuildDemoDocs(b)
	ix, err := index.BuildFrom(schema(), 0, b.docs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := selection.Select(ix, selection.Config{TC: int64(0.01 * float64(ix.NumDocs())), TV: 4096})
	if err != nil {
		t.Fatal(err)
	}
	legacy := t.TempDir()
	if err := ix.SaveMapped(filepath.Join(legacy, "index.gob")); err != nil {
		t.Fatal(err)
	}
	if err := m.Catalog.SaveFile(filepath.Join(legacy, "views.gob")); err != nil {
		t.Fatal(err)
	}
	for _, name := range ranking.Names() {
		opts := BuildOptions{Scorer: Scorer(name)}
		old, err := OpenSharded(legacy, opts)
		if err != nil {
			t.Fatal(err)
		}
		if old.NumShards() != 1 || old.NumDocs() != 602 || old.NumViews() != m.Catalog.Len() {
			t.Fatalf("legacy dir: %d shards / %d docs / %d views", old.NumShards(), old.NumDocs(), old.NumViews())
		}
		fresh := NewBuilder()
		rebuildDemoDocs(fresh)
		want, err := fresh.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range shardedDemoQueries {
			wh, _, err := want.Search(q, 20)
			if err != nil {
				t.Fatal(err)
			}
			gh, _, err := old.Search(q, 20)
			if err != nil {
				t.Fatal(err)
			}
			sameHits(t, fmt.Sprintf("%s q=%q", name, q), gh, wh)
		}
	}

	old, err := OpenSharded(legacy, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	converted := t.TempDir()
	if err := old.Save(converted); err != nil {
		t.Fatal(err)
	}
	if man, err := shard.LoadManifest(converted); err != nil || man.Shards != 1 {
		t.Fatalf("converted dir manifest %+v: %v", man, err)
	}
	assertPagedShards(t, converted, 1, "index.gob")
	cat, err := views.LoadFile(filepath.Join(shard.ShardDir(converted, 0), "views.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if cat.Fingerprint() != m.Catalog.Fingerprint() {
		t.Fatalf("converted catalog fingerprint %s, legacy %s", cat.Fingerprint(), m.Catalog.Fingerprint())
	}
}

// assertPagedShards checks that each of a cluster dir's shards holds its
// index file name as paged format v4.
func assertPagedShards(t *testing.T, dir string, shards int, name string) {
	t.Helper()
	for i := 0; i < shards; i++ {
		assertPaged(t, filepath.Join(shard.ShardDir(dir, i), name))
	}
}

// assertPaged checks that the index file at path is paged format v4.
func assertPaged(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshot.IsPaged(b) {
		t.Fatalf("%s: not written as paged format v4", path)
	}
}
