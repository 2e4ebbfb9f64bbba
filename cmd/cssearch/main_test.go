package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csrank/internal/corpus"
	"csrank/internal/selection"
	"csrank/internal/views"
	"csrank/internal/wal"
)

// buildData creates a small persisted instance for the search tool.
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
	return dir
}

// TestExpiredTimeoutPrintsDegraded: with -timeout already expired the
// search prints a flagged degraded result (with the phase-timing explain
// line) instead of failing.
func TestExpiredTimeoutPrintsDegraded(t *testing.T) {
	dir := buildData(t)
	eng, ix, err := openEngine(dir, "", "pivoted-tfidf", time.Nanosecond, false)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := searchAndPrint(eng, ix, "disease organ | anatomy", 5, "context", &out); err != nil {
		t.Fatalf("expired timeout should degrade, not error: %v", err)
	}
	if !strings.Contains(out.String(), "degraded") || !strings.Contains(out.String(), "phases:") {
		t.Fatalf("output missing degraded explain line:\n%s", out.String())
	}
}

func TestRunAllModes(t *testing.T) {
	dir := buildData(t)
	// "disease" and "organ" are curated topic words, "anatomy" a curated
	// category always present in the generated ontology.
	q := "disease organ | anatomy"
	for _, mode := range []string{"context", "conventional", "straightforward", "compare"} {
		if err := run(dir, "", q, 5, mode, "pivoted-tfidf", 0, false); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
}

func TestRunScorers(t *testing.T) {
	dir := buildData(t)
	for _, sc := range []string{"pivoted-tfidf", "bm25", "dirichlet-lm"} {
		if err := run(dir, "", "disease | anatomy", 3, "context", sc, 0, true); err != nil {
			t.Errorf("scorer %s: %v", sc, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := buildData(t)
	if err := run(dir, "", "disease", 3, "context", "nope", 0, false); err == nil {
		t.Error("unknown scorer accepted")
	}
	if err := run(dir, "", "disease", 3, "bogus", "bm25", 0, false); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run(dir, "", "a | b | c", 3, "context", "bm25", 0, false); err == nil {
		t.Error("unparseable query accepted")
	}
	if err := run(t.TempDir(), "", "disease", 3, "context", "bm25", 0, false); err == nil {
		t.Error("missing data dir accepted")
	}
}

// TestVerifyAndWALRecovery covers the durability flags end to end: a
// fresh build audits clean; a WAL directory seeded with one extra
// logged update recovers into the engine bit-identically, and the
// audit flags exactly that divergence from the index.
func TestVerifyAndWALRecovery(t *testing.T) {
	dir := buildData(t)
	var out bytes.Buffer
	if err := verifyViews(dir, "", &out); err != nil {
		t.Fatalf("fresh build should verify clean: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok:") {
		t.Fatalf("missing ok line: %q", out.String())
	}

	// Seed a WAL directory from the persisted catalog and log an update
	// the index does not contain.
	cat, err := views.LoadFile(filepath.Join(dir, "views.gob"))
	if err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	m, err := wal.Create(walDir, cat, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := views.DocUpdate{Predicates: []string{"anatomy"}, Len: 42}
	if err := m.Apply(wal.Batch{{Op: wal.OpApply, Doc: u}}); err != nil {
		t.Fatal(err)
	}
	fp := m.Catalog().Fingerprint()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	eng, _, err := openEngine(dir, walDir, "bm25", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Catalog().Fingerprint(); got != fp {
		t.Fatalf("recovered catalog fingerprint %s, logged state %s", got, fp)
	}

	// The logged document was never indexed, so the audit must fail.
	out.Reset()
	if err := verifyViews(dir, walDir, &out); err == nil {
		t.Fatalf("drifted catalog verified clean:\n%s", out.String())
	}
}

func TestRunInteractive(t *testing.T) {
	dir := buildData(t)
	in := strings.NewReader("disease | anatomy\n? disease | anatomy\nbogus | | query\n\nexit\n")
	var out bytes.Buffer
	if err := runInteractive(dir, "", 3, "context", "pivoted-tfidf", 0, true, in, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "context-sensitive") {
		t.Errorf("missing search output: %q", s)
	}
	if !strings.Contains(s, "plan:") {
		t.Errorf("missing explanation output: %q", s)
	}
	if !strings.Contains(s, "error:") {
		t.Errorf("missing error report for bad query: %q", s)
	}
	// EOF without "exit" also terminates cleanly.
	if err := runInteractive(dir, "", 3, "context", "pivoted-tfidf", 0, false, strings.NewReader("disease\n"), &out); err != nil {
		t.Fatal(err)
	}
	// Bad scorer surfaces immediately.
	if err := runInteractive(dir, "", 3, "context", "nope", 0, false, strings.NewReader(""), &out); err == nil {
		t.Error("unknown scorer accepted")
	}
}

// TestListStatsBothFormats: -liststats reports the on-disk block layout
// for the paged-v4 index every writer emits and for a legacy gob one an
// older build wrote, labeling each with its actual format (cache stats
// only exist for the mapped reader).
func TestListStatsBothFormats(t *testing.T) {
	dir := buildData(t)
	var v4 bytes.Buffer
	if err := printListStats(dir, &v4); err != nil {
		t.Fatal(err)
	}
	s := v4.String()
	if !strings.Contains(s, "format v4") || !strings.Contains(s, "block cache") {
		t.Errorf("v4 liststats wrong:\n%s", s)
	}
	// The paged file must also serve searches through the same CLI path.
	if err := run(dir, "", "disease | anatomy", 3, "context", "bm25", 0, true); err != nil {
		t.Fatal(err)
	}

	legacy := t.TempDir()
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "index", "testdata", "v3-framed.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacy, "index.gob"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := printListStats(legacy, &v3); err != nil {
		t.Fatal(err)
	}
	s = v3.String()
	if !strings.Contains(s, "legacy gob (v0–v3, read-only)") || strings.Contains(s, "format v") {
		t.Errorf("gob index mislabeled:\n%s", s)
	}
	for _, want := range []string{"on disk:", "blocks:", "bytes/posting"} {
		if !strings.Contains(s, want) {
			t.Errorf("legacy liststats missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "block cache") {
		t.Errorf("heap index reports a block cache:\n%s", s)
	}
}
