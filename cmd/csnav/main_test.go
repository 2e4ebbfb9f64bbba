package main

import (
	"path/filepath"
	"testing"

	"csrank/internal/core"
	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/selection"
	"csrank/internal/shard"
)

// layouts are the data directories every test navigates: the one-shard
// cluster csbuild writes by default, a three-shard cluster, and the
// single-engine layout older builds wrote.
var layouts = []struct {
	name   string
	shards int // 0 = single-engine layout
}{{"one-shard", 1}, {"three-shard", 3}, {"legacy", 0}}

// buildData persists one small corpus with its ontology: a cluster as
// csbuild writes it when shards ≥ 1, else index.gob and views.gob at the
// root.
func buildData(t *testing.T, shards int) string {
	t.Helper()
	dir := t.TempDir()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 2000
	cfg.OntologyTerms = 100
	cfg.NumTopics = 0
	c, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Onto.SaveFile(filepath.Join(dir, "mesh.gob")); err != nil {
		t.Fatal(err)
	}
	parts, globals, err := shard.Split(c.IndexDocuments(), max(shards, 1))
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.Engine, len(parts))
	for i, part := range parts {
		ix, err := index.BuildFrom(corpus.Schema(), 0, part)
		if err != nil {
			t.Fatal(err)
		}
		m, err := selection.Select(ix, selection.Config{TC: int64(len(part) / 50), TV: 256})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = core.New(ix, m.Catalog, core.Options{})
	}
	if shards == 0 {
		if err := engines[0].Index().SaveMapped(filepath.Join(dir, "index.gob")); err != nil {
			t.Fatal(err)
		}
		if err := engines[0].Catalog().SaveFile(filepath.Join(dir, "views.gob")); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cl, err := shard.NewCluster(engines, globals)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestNavigation(t *testing.T) {
	for _, l := range layouts {
		dir := buildData(t, l.shards)
		if err := run(dir, "", "", "", 5, 0); err != nil {
			t.Errorf("%s: root listing: %v", l.name, err)
		}
		if err := run(dir, "diseases", "", "", 5, 0); err != nil {
			t.Errorf("%s: path listing: %v", l.name, err)
		}
		if err := run(dir, "diseases/neoplasms", "", "", 5, 0); err != nil {
			t.Errorf("%s: deep path listing: %v", l.name, err)
		}
	}
}

func TestSelectAndQuery(t *testing.T) {
	for _, l := range layouts {
		dir := buildData(t, l.shards)
		if err := run(dir, "", "anatomy", "", 5, 0); err != nil {
			t.Errorf("%s: select only: %v", l.name, err)
		}
		if err := run(dir, "", "anatomy", "organ disease", 5, 0); err != nil {
			t.Errorf("%s: select + query: %v", l.name, err)
		}
	}
}

func TestNavErrors(t *testing.T) {
	dir := buildData(t, 1)
	if err := run(dir, "no_such_term", "", "", 5, 0); err == nil {
		t.Error("unknown path accepted")
	}
	if err := run(dir, "", "no_such_term", "", 5, 0); err == nil {
		t.Error("unknown selection accepted")
	}
	if err := run(t.TempDir(), "", "", "", 5, 0); err == nil {
		t.Error("missing data dir accepted")
	}
}
