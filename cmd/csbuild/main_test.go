package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrank"
	"csrank/internal/fsx"
	"csrank/internal/index"
	"csrank/internal/mesh"
	"csrank/internal/shard"
	"csrank/internal/snapshot"
	"csrank/internal/views"
)

// TestRunProducesLoadableArtifacts: the default build writes a
// one-shard cluster — cluster.json, shard-000/{index.gob, views.gob} —
// with the ontology and the citation dump at the root.
func TestRunProducesLoadableArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 2000, 100, 0, 0.02, 128, 1, 0, true, 1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cluster.json", filepath.Join("shard-000", "index.gob"),
		filepath.Join("shard-000", "views.gob"), "mesh.gob", "citations.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "index.gob")); err == nil {
		t.Error("default build wrote the single-engine layout")
	}
	sd := shard.ShardDir(dir, 0)
	m, err := shard.LoadManifest(fsx.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 1 || m.TotalDocs != 2000 {
		t.Errorf("manifest: %d shards / %d docs, want 1 / 2000", m.Shards, m.TotalDocs)
	}
	raw, err := os.ReadFile(filepath.Join(sd, "index.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if !snapshot.IsPaged(raw) {
		t.Error("default build did not write the paged v4 format")
	}
	ix, err := index.LoadFileFS(fsx.OS, filepath.Join(sd, "index.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if v := ix.FormatVersion(); v != index.MappedFormatVersion {
		t.Errorf("index opened at format %d, want v%d", v, index.MappedFormatVersion)
	}
	if ix.NumDocs() != 2000 {
		t.Errorf("NumDocs = %d", ix.NumDocs())
	}
	cat, err := views.LoadFile(filepath.Join(sd, "views.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() == 0 {
		t.Error("no views persisted")
	}
	onto, err := mesh.LoadFile(filepath.Join(dir, "mesh.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if onto.Len() < 100 {
		t.Errorf("ontology = %d terms", onto.Len())
	}
}

// TestRunSharded: -shards 4 writes a loadable cluster plus the topic
// query log, and it ranks bit-identically to the default one-shard build
// of the same corpus.
func TestRunSharded(t *testing.T) {
	single, cluster := t.TempDir(), t.TempDir()
	if err := run(single, 6000, 150, 10, 0.02, 128, 1, 0, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := run(cluster, 6000, 150, 10, 0.02, 128, 1, 0, false, 4); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cluster.json", "mesh.gob", "queries.txt",
		filepath.Join("shard-000", "index.gob"), filepath.Join("shard-003", "views.gob")} {
		if _, err := os.Stat(filepath.Join(cluster, name)); err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
	}
	for i := 0; i < 4; i++ {
		b, err := os.ReadFile(filepath.Join(shard.ShardDir(cluster, i), "index.gob"))
		if err != nil {
			t.Fatal(err)
		}
		if !snapshot.IsPaged(b) {
			t.Errorf("shard %d index not written as paged format v4", i)
		}
	}
	raw, err := os.ReadFile(filepath.Join(cluster, "queries.txt"))
	if err != nil {
		t.Fatal(err)
	}
	queries := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(queries) != 10 {
		t.Fatalf("%d topic queries, want 10", len(queries))
	}

	se, err := csrank.OpenSharded(cluster, csrank.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if se.NumShards() != 4 || se.NumDocs() != 6000 {
		t.Fatalf("cluster: %d shards / %d docs", se.NumShards(), se.NumDocs())
	}
	e, err := csrank.OpenSharded(single, csrank.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumShards() != 1 || e.NumDocs() != 6000 {
		t.Fatalf("default build: %d shards / %d docs", e.NumShards(), e.NumDocs())
	}
	for _, q := range queries {
		want, _, err := e.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := se.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("q=%q: %d hits sharded, %d single", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("q=%q rank %d: %+v sharded, want %+v", q, i, got[i], want[i])
			}
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run(t.TempDir(), 0, 100, 0, 0.02, 128, 1, 0, false, 1); err == nil {
		t.Error("zero docs accepted")
	}
	// Unwritable output directory.
	if err := run("/proc/definitely/not/writable", 100, 50, 0, 0.02, 128, 1, 0, false, 1); err == nil {
		t.Error("unwritable dir accepted")
	}
}

// TestRawGobDataDirStillLoads: a data directory whose index.gob and
// views.gob are raw gob streams (no snapshot magic — what pre-frame
// builds wrote) is still read by LoadFile via sniffing. Nothing writes
// either format any more, so both fixtures are streams the owning
// packages keep from the last commits that did.
func TestRawGobDataDirStillLoads(t *testing.T) {
	dir := t.TempDir()
	rawIndex, err := os.ReadFile(filepath.Join("..", "..", "internal", "index", "testdata", "v3-raw.gob"))
	if err != nil {
		t.Fatal(err)
	}
	rawViews, err := os.ReadFile(filepath.Join("..", "..", "internal", "views", "testdata", "catalog-v0.gob"))
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"index.gob": rawIndex, "views.gob": rawViews} {
		if snapshot.IsFramed(raw) {
			t.Fatalf("%s fixture carries the snapshot frame", name)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The index fixture holds four documents.
	if got, err := index.LoadFileFS(fsx.OS, filepath.Join(dir, "index.gob")); err != nil || got.NumDocs() != 4 {
		t.Fatalf("raw-gob index: %v", err)
	}
	if got, err := views.LoadFile(filepath.Join(dir, "views.gob")); err != nil || got.Len() != 2 {
		t.Fatalf("raw-gob views: %v", err)
	}
	// The single-engine layout opens as a one-shard cluster.
	if e, err := csrank.OpenSharded(dir, csrank.BuildOptions{}); err != nil || e.NumShards() != 1 || e.NumDocs() != 4 || e.NumViews() != 2 {
		t.Fatalf("raw-gob data dir did not open as one shard: %v", err)
	}
}
