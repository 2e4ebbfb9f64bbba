package shard

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrank/internal/core"
	"csrank/internal/fsx"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/snapshot"
)

// TestSaveOpenRoundTrip persists a cluster and reopens it: every shard
// index is written as paged format v4 and reopens mapped, and rankings
// must be bit-identical to the in-memory cluster.
func TestSaveOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	docs, meshTerms, words := randomDocs(rng, 200, 6, 6)
	parts, globals, err := Split(docs, 3)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.Engine, 3)
	for i := range engines {
		ix := buildIndex(t, parts[i], 16)
		engines[i] = core.New(ix, shardCatalog(t, rng, ix, meshTerms, words), core.Options{})
	}
	mem, err := NewCluster(engines, globals)
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Keywords: []string{words[0]}, Context: meshTerms[:1]}
	want, _, err := mem.Search(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := mem.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(fsx.OS, dir); err != nil {
		t.Fatalf("saved directory has no manifest: %v", err)
	}
	for i := range engines {
		b, err := os.ReadFile(filepath.Join(ShardDir(dir, i), "index.gob"))
		if err != nil {
			t.Fatal(err)
		}
		if !snapshot.IsPaged(b) {
			t.Fatalf("shard %d index not written as paged format v4", i)
		}
	}
	got, err := Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumShards() != 3 || got.NumDocs() != len(docs) {
		t.Fatalf("reopened cluster %d shards / %d docs, want 3 / %d", got.NumShards(), got.NumDocs(), len(docs))
	}
	for i := range got.shards {
		if eng, _ := got.shards[i].Snapshot(); eng.Index().FormatVersion() != index.MappedFormatVersion {
			t.Fatalf("reopened shard %d is not a v5 image", i)
		}
	}
	hits, _, err := got.Search(context.Background(), q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(want) {
		t.Fatalf("%d hits, want %d", len(hits), len(want))
	}
	for i := range want {
		if hits[i].Global != want[i].Global || hits[i].Score != want[i].Score {
			t.Fatalf("rank %d: (%d, %v), want (%d, %v)",
				i, hits[i].Global, hits[i].Score, want[i].Global, want[i].Score)
		}
	}
}

// TestOpenRejectsDrift: a shard directory whose index disagrees with
// the manifest's partition must fail to open.
func TestOpenRejectsDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	docs, _, _ := randomDocs(rng, 120, 4, 4)
	parts, globals, err := Split(docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*core.Engine{
		core.New(buildIndex(t, parts[0], 16), nil, core.Options{}),
		core.New(buildIndex(t, parts[1], 16), nil, core.Options{}),
	}
	c, err := NewCluster(engines, globals)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Overwrite shard 1's index with shard 0's (wrong partition).
	src, err := os.ReadFile(filepath.Join(ShardDir(dir, 0), "index.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ShardDir(dir, 1), "index.gob"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, core.Options{}); err == nil && len(parts[0]) != len(parts[1]) {
		t.Fatal("drifted shard directory opened")
	}
}

// TestFailedOpenUnmapsOpenedShards: when a later shard fails to open,
// Open releases the engines it had opened, so no index or catalog file
// of the directory stays mapped.
func TestFailedOpenUnmapsOpenedShards(t *testing.T) {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil || len(maps) == 0 {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	rng := rand.New(rand.NewSource(103))
	docs, meshTerms, words := randomDocs(rng, 150, 5, 5)
	parts, globals, err := Split(docs, 3)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.Engine, 3)
	for i := range engines {
		ix := buildIndex(t, parts[i], 16)
		engines[i] = core.New(ix, shardCatalog(t, rng, ix, meshTerms, words), core.Options{})
	}
	c, err := NewCluster(engines, globals)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ShardDir(dir, 2), "index.gob"), []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, core.Options{}); err == nil {
		t.Fatal("a directory with a corrupt shard opened")
	}
	maps, err = os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir) {
			t.Fatalf("failed open left a mapping: %s", line)
		}
	}
}

// TestManifestValidate covers the manifest's self-checks.
func TestManifestValidate(t *testing.T) {
	good := NewManifest(100, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"bad version", func(m *Manifest) { m.Version = 99 }},
		{"zero shards", func(m *Manifest) { m.Shards = 0 }},
		{"unknown partition", func(m *Manifest) { m.Partition = "mod" }},
		{"size mismatch", func(m *Manifest) { m.ShardDocs[0]++ }},
		{"wrong count", func(m *Manifest) { m.ShardDocs = m.ShardDocs[:2] }},
	}
	for _, tc := range cases {
		m := NewManifest(100, 4)
		m.ShardDocs = append([]int(nil), m.ShardDocs...)
		tc.mutate(&m)
		if err := m.Validate(); err == nil {
			t.Fatalf("%s: validated", tc.name)
		}
	}
}
