package main

import (
	"path/filepath"
	"testing"

	"csrank/internal/corpus"
	"csrank/internal/selection"
)

func buildData(t *testing.T) string {
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
	ix, err := c.BuildIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := selection.Select(ix, selection.Config{TC: 40, TV: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SaveMapped(filepath.Join(dir, "index.gob")); err != nil {
		t.Fatal(err)
	}
	if err := m.Catalog.SaveFile(filepath.Join(dir, "views.gob")); err != nil {
		t.Fatal(err)
	}
	if err := c.Onto.SaveFile(filepath.Join(dir, "mesh.gob")); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestNavigation(t *testing.T) {
	dir := buildData(t)
	if err := run(dir, "", "", "", 5, 0); err != nil {
		t.Errorf("root listing: %v", err)
	}
	if err := run(dir, "diseases", "", "", 5, 0); err != nil {
		t.Errorf("path listing: %v", err)
	}
	if err := run(dir, "diseases/neoplasms", "", "", 5, 0); err != nil {
		t.Errorf("deep path listing: %v", err)
	}
}

func TestSelectAndQuery(t *testing.T) {
	dir := buildData(t)
	if err := run(dir, "", "anatomy", "", 5, 0); err != nil {
		t.Errorf("select only: %v", err)
	}
	if err := run(dir, "", "anatomy", "organ disease", 5, 0); err != nil {
		t.Errorf("select + query: %v", err)
	}
}

func TestNavErrors(t *testing.T) {
	dir := buildData(t)
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
