package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrank"
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
		if err := run(dir, "", "", "", 5, 0, io.Discard); err != nil {
			t.Errorf("%s: root listing: %v", l.name, err)
		}
		if err := run(dir, "diseases", "", "", 5, 0, io.Discard); err != nil {
			t.Errorf("%s: path listing: %v", l.name, err)
		}
		if err := run(dir, "diseases/neoplasms", "", "", 5, 0, io.Discard); err != nil {
			t.Errorf("%s: deep path listing: %v", l.name, err)
		}
	}
}

func TestSelectAndQuery(t *testing.T) {
	for _, l := range layouts {
		dir := buildData(t, l.shards)
		if err := run(dir, "", "anatomy", "", 5, 0, io.Discard); err != nil {
			t.Errorf("%s: select only: %v", l.name, err)
		}
		if err := run(dir, "", "anatomy", "organ disease", 5, 0, io.Discard); err != nil {
			t.Errorf("%s: select + query: %v", l.name, err)
		}
	}
}

func TestNavErrors(t *testing.T) {
	dir := buildData(t, 1)
	if err := run(dir, "no_such_term", "", "", 5, 0, io.Discard); err == nil {
		t.Error("unknown path accepted")
	}
	if err := run(dir, "", "no_such_term", "", 5, 0, io.Discard); err == nil {
		t.Error("unknown selection accepted")
	}
	if err := run(t.TempDir(), "", "", "", 5, 0, io.Discard); err == nil {
		t.Error("missing data dir accepted")
	}
}

// TestCompactedLiveDir: csnav opens a live directory compacted twice at
// its committed generation — it counts every compacted document and
// prints the top 20 OpenLive serves for the same context query.
func TestCompactedLiveDir(t *testing.T) {
	dir := buildData(t, 2)
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 2200
	cfg.OntologyTerms = 100
	cfg.NumTopics = 0
	c, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, err := csrank.OpenLive(dir, csrank.BuildOptions{}, csrank.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for i, cit := range c.Docs[2000:] {
		if _, err := live.Add(csrank.Document{Title: cit.Title, Body: cit.Abstract, Predicates: cit.Mesh}); err != nil {
			t.Fatal(err)
		}
		if (i+1)%100 == 0 {
			if err := live.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, _, err := live.Search("disease | anatomy", 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 20 {
		t.Fatalf("OpenLive answers %d hits, want 20", len(hits))
	}
	want := []string{"of 2200 citations"}
	for i, h := range hits {
		want = append(want, fmt.Sprintf("  %2d. (%.4f) #%d %s", i+1, h.Score, h.DocID, h.Title))
	}
	var out bytes.Buffer
	if err := run(dir, "", "anatomy", "disease", 20, 0, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 22 || !strings.HasSuffix(lines[0], want[0]) || strings.Join(lines[2:], "\n") != strings.Join(want[1:], "\n") {
		t.Fatalf("csnav prints\n%s\nwant the context line to end %q, then OpenLive's ranks\n%s", out.String(), want[0], strings.Join(want[1:], "\n"))
	}
}

// TestLoggedDocsNoted: three documents acknowledged but never compacted
// are only in the ingestion log, which a read-only open does not
// replay; csnav says how many and counts only the committed citations.
func TestLoggedDocsNoted(t *testing.T) {
	var note bytes.Buffer
	notes = &note
	defer func() { notes = os.Stderr }()
	dir := buildData(t, 2)
	live, err := csrank.OpenLive(dir, csrank.BuildOptions{}, csrank.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if _, err := live.Add(csrank.Document{Title: fmt.Sprintf("late %d", i), Body: "disease", Predicates: []string{"anatomy"}}); err != nil {
			t.Fatal(err)
		}
	}
	live.Close()
	var out bytes.Buffer
	if err := run(dir, "", "anatomy", "", 5, 0, &out); err != nil {
		t.Fatal(err)
	}
	if want := "note: 3 acknowledged documents in the generation-0 ingestion log"; !strings.Contains(note.String(), want) {
		t.Fatalf("notes %q lack %q", note.String(), want)
	}
	if !strings.Contains(out.String(), "of 2000 citations") {
		t.Fatalf("csnav counts logged documents:\n%s", out.String())
	}
}
