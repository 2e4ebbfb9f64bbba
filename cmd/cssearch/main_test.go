package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csrank"
	"csrank/internal/core"
	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/ranking"
	"csrank/internal/selection"
	"csrank/internal/shard"
	"csrank/internal/snapshot"
	"csrank/internal/views"
)

// layouts are the data directories every tool test runs against: the
// one-shard cluster csbuild writes by default, a three-shard cluster,
// and the single-engine layout older builds wrote.
var layouts = []struct {
	name   string
	shards int // 0 = single-engine layout
}{{"one-shard", 1}, {"three-shard", 3}, {"legacy", 0}}

// buildData persists one small corpus for the search tool: a cluster as
// csbuild writes it when shards ≥ 1, else index.gob and views.gob at the
// root.
func buildData(t *testing.T, shards int) string {
	t.Helper()
	dir := t.TempDir()
	parts, globals, err := shard.Split(testDocs(t), max(shards, 1))
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

// testDocs generates the 2 000-document collection buildData splits.
func testDocs(t *testing.T) []index.Document {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 2000
	cfg.OntologyTerms = 100
	cfg.NumTopics = 0
	c, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.IndexDocuments()
}

// ranked keeps the ranked-hit lines of cssearch output.
func ranked(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 0 && strings.HasSuffix(f[0], ".") && strings.HasPrefix(l, "  ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestExpiredTimeoutPrintsDegraded: with -timeout already expired the
// search prints a flagged degraded result (with the phase-timing explain
// line) instead of failing.
func TestExpiredTimeoutPrintsDegraded(t *testing.T) {
	for _, l := range layouts {
		c, err := openCluster(buildData(t, l.shards), "pivoted-tfidf", time.Nanosecond, false)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := searchAndPrint(c, "disease organ | anatomy", 5, "context", &out); err != nil {
			t.Fatalf("%s: expired timeout should degrade, not error: %v", l.name, err)
		}
		if !strings.Contains(out.String(), "degraded") || !strings.Contains(out.String(), "phases:") {
			t.Fatalf("%s: output missing degraded explain line:\n%s", l.name, out.String())
		}
	}
}

// TestRunAllModes runs every mode on every layout, and the ranked lines
// of each mode must be the same on all of them.
func TestRunAllModes(t *testing.T) {
	// "disease" and "organ" are curated topic words, "anatomy" a curated
	// category always present in the generated ontology.
	q := "disease organ | anatomy"
	want := map[string][]string{}
	for _, l := range layouts {
		c, err := openCluster(buildData(t, l.shards), "pivoted-tfidf", 0, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"context", "conventional", "straightforward", "compare"} {
			var out bytes.Buffer
			if err := searchAndPrint(c, q, 5, mode, &out); err != nil {
				t.Fatalf("%s mode %s: %v", l.name, mode, err)
			}
			got := ranked(out.String())
			if len(got) == 0 {
				t.Fatalf("%s mode %s: no ranked lines:\n%s", l.name, mode, out.String())
			}
			if w, ok := want[mode]; !ok {
				want[mode] = got
			} else if strings.Join(got, "\n") != strings.Join(w, "\n") {
				t.Fatalf("%s mode %s ranks\n%s\nwant\n%s", l.name, mode, strings.Join(got, "\n"), strings.Join(w, "\n"))
			}
		}
	}
}

func TestRunScorers(t *testing.T) {
	dir := buildData(t, 1)
	for _, sc := range []string{"pivoted-tfidf", "bm25", "dirichlet-lm"} {
		if err := run(dir, "disease | anatomy", 3, "context", sc, 0, true, io.Discard); err != nil {
			t.Errorf("scorer %s: %v", sc, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := buildData(t, 1)
	if err := run(dir, "disease", 3, "context", "nope", 0, false, io.Discard); err == nil {
		t.Error("unknown scorer accepted")
	}
	if err := run(dir, "disease", 3, "bogus", "bm25", 0, false, io.Discard); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run(dir, "a | b | c", 3, "context", "bm25", 0, false, io.Discard); err == nil {
		t.Error("unparseable query accepted")
	}
	if err := run(t.TempDir(), "disease", 3, "context", "bm25", 0, false, io.Discard); err == nil {
		t.Error("missing data dir accepted")
	}
}

// TestVerify covers both halves of the -verify contract: a fresh build
// audits clean in every layout, and a views.gob that misses one document
// the index holds fails the audit.
func TestVerify(t *testing.T) {
	for _, l := range layouts {
		var out bytes.Buffer
		if err := verifyData(buildData(t, l.shards), &out); err != nil {
			t.Fatalf("%s: fresh build should verify clean: %v\n%s", l.name, err, out.String())
		}
		if n := strings.Count(out.String(), "ok:"); n != max(l.shards, 1) {
			t.Fatalf("%s: %d ok lines: %q", l.name, n, out.String())
		}
	}

	// Replace the persisted catalog with one selected, as buildData
	// selects, over the collection less its first document.
	dir := buildData(t, 1)
	ix, err := index.BuildFrom(corpus.Schema(), 0, testDocs(t)[1:])
	if err != nil {
		t.Fatal(err)
	}
	m, err := selection.Select(ix, selection.Config{TC: 2000 / 50, TV: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Catalog.SaveFile(filepath.Join(shard.ShardDir(dir, 0), "views.gob")); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := verifyData(dir, &out); err == nil {
		t.Fatalf("drifted catalog verified clean:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "count = ") {
		t.Errorf("drift report lists no count finding:\n%s", out.String())
	}
}

// TestVerifyChecksIndexSections: -verify checksums the index sections
// that opening skips, so one flipped byte in shard 0's stored text fails
// the audit and the error names the shard and the section — in a csbuild
// output's index.gob and in the generation file a compaction wrote.
func TestVerifyChecksIndexSections(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  string
		gen  uint64
	}{
		{"csbuild", buildData(t, 1), 0},
		{"compacted", compactLiveDir(t, buildData(t, 2), 1), 1},
	} {
		path := filepath.Join(shard.ShardDir(tc.dir, 0), shard.IndexName(tc.gen))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := snapshot.OpenPaged(data)
		if err != nil {
			t.Fatal(err)
		}
		stored, ok := pf.Section("stored")
		if !ok {
			t.Fatalf("%s: index file has no stored section", tc.name)
		}
		stored[len(stored)-1] ^= 1 // the section aliases data: the last byte of stored text
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = verifyData(tc.dir, &out)
		if err == nil {
			t.Fatalf("%s: corrupt stored section verified clean:\n%s", tc.name, out.String())
		}
		if msg := err.Error(); !strings.Contains(msg, "shard 0") || !strings.Contains(msg, `"stored"`) {
			t.Fatalf("%s: error %q does not name shard 0 and the stored section", tc.name, msg)
		}
	}
}

// compactLiveDir adds 100 new documents to the cluster at dir through
// the live path and compacts them, rounds times, leaving nothing
// pending; it returns dir.
func compactLiveDir(t *testing.T, dir string, rounds int) string {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 2000 + 100*rounds
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
	return dir
}

// TestCompactedLiveDir: a live directory compacted twice opens at its
// committed generation — cssearch prints the top 20 OpenLive serves,
// under each of the five scorers — and -verify checksums generation 2's
// files and passes, reporting that no catalog serves there.
func TestCompactedLiveDir(t *testing.T) {
	const q = "disease | anatomy"
	dir := compactLiveDir(t, buildData(t, 2), 2)
	for _, name := range ranking.Names() {
		live, err := csrank.OpenLive(dir, csrank.BuildOptions{Scorer: csrank.Scorer(name)}, csrank.IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hits, _, err := live.Search(q, 20)
		live.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 20 {
			t.Fatalf("%s: OpenLive answers %d hits, want 20", name, len(hits))
		}
		var want []string
		for i, h := range hits {
			want = append(want, fmt.Sprintf("  %2d. (%.4f) #%d %s", i+1, h.Score, h.DocID, h.Title))
		}
		var out bytes.Buffer
		if err := run(dir, q, 20, "context", name, 0, false, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := ranked(out.String()); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: cssearch ranks\n%s\nOpenLive ranks\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
	var out bytes.Buffer
	if err := verifyData(dir, &out); err != nil {
		t.Fatalf("a clean compacted directory fails -verify: %v\n%s", err, out.String())
	}
	if want := "generation 2: no view catalog (catalogs serve only at generation 0)"; !strings.Contains(out.String(), want) {
		t.Fatalf("-verify output %q lacks %q", out.String(), want)
	}
}

func TestRunInteractive(t *testing.T) {
	for _, l := range layouts {
		dir := buildData(t, l.shards)
		in := strings.NewReader("disease | anatomy\n? disease | anatomy\nbogus | | query\n\nexit\n")
		var out bytes.Buffer
		if err := runInteractive(dir, 3, "context", "pivoted-tfidf", 0, true, in, &out); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		if !strings.Contains(s, "context-sensitive") {
			t.Errorf("%s: missing search output: %q", l.name, s)
		}
		if !strings.Contains(s, "plan:") {
			t.Errorf("%s: missing explanation output: %q", l.name, s)
		}
		if got := strings.Contains(s, "shard 2:"); got != (l.shards == 3) {
			t.Errorf("%s: per-shard explanation headers %v: %q", l.name, got, s)
		}
		if !strings.Contains(s, "error:") {
			t.Errorf("%s: missing error report for bad query: %q", l.name, s)
		}
		// EOF without "exit" also terminates cleanly.
		if err := runInteractive(dir, 3, "context", "pivoted-tfidf", 0, false, strings.NewReader("disease\n"), &out); err != nil {
			t.Fatal(err)
		}
		// Bad scorer surfaces immediately.
		if err := runInteractive(dir, 3, "context", "nope", 0, false, strings.NewReader(""), &out); err == nil {
			t.Errorf("%s: unknown scorer accepted", l.name)
		}
	}
}

// TestListStatsBothFormats: -liststats reports the on-disk block layout
// for the paged-v5 index every writer emits — each shard's in turn — for
// a paged-v4 one and a legacy gob one older builds wrote, labeling each
// with the format its own file records. Every index is served from a
// v5 image (a gob stream is decoded into one), so each reports its
// block cache.
func TestListStatsBothFormats(t *testing.T) {
	for _, l := range layouts {
		dir := buildData(t, l.shards)
		var v5 bytes.Buffer
		if err := printListStats(dir, &v5); err != nil {
			t.Fatal(err)
		}
		s := v5.String()
		if n := strings.Count(s, "format v5"); n != max(l.shards, 1) || !strings.Contains(s, "block cache") {
			t.Errorf("%s: v5 liststats wrong (%d headers):\n%s", l.name, n, s)
		}
		// The paged files must also serve searches through the same CLI path.
		if err := run(dir, "disease | anatomy", 3, "context", "bm25", 0, true, io.Discard); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct{ fixture, want string }{
		{"v4-corpus.idx", "format v4"},
		{"v3-framed.snap", "legacy gob (v0–v3, read-only)"},
	} {
		legacy := t.TempDir()
		raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "index", "testdata", tc.fixture))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(legacy, "index.gob"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := printListStats(legacy, &out); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		if strings.Count(s, "format v")+strings.Count(s, "legacy gob") != 1 || !strings.Contains(s, tc.want) {
			t.Errorf("%s mislabeled, want %q:\n%s", tc.fixture, tc.want, s)
		}
		for _, want := range []string{"on disk:", "blocks:", "bytes/posting", "block cache"} {
			if !strings.Contains(s, want) {
				t.Errorf("%s liststats missing %q:\n%s", tc.fixture, want, s)
			}
		}
	}
}

// addUncompacted adds three new documents to the cluster at dir through
// the live path and closes it without compacting, so they are only in
// the generation-0 ingestion log; it returns dir.
func addUncompacted(t *testing.T, dir string) string {
	t.Helper()
	live, err := csrank.OpenLive(dir, csrank.BuildOptions{}, csrank.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for i := range 3 {
		if _, err := live.Add(csrank.Document{Title: fmt.Sprintf("late %d", i), Body: "disease organ", Predicates: []string{"anatomy"}}); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoggedDocsNoted: documents acknowledged but never compacted are
// only in the ingestion log, which a read-only open does not replay;
// cssearch says how many.
func TestLoggedDocsNoted(t *testing.T) {
	var note bytes.Buffer
	notes = &note
	defer func() { notes = os.Stderr }()
	dir := buildData(t, 2)
	if err := run(dir, "disease | anatomy", 3, "context", "bm25", 0, false, io.Discard); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(note.String(), "acknowledged") {
		t.Fatalf("fresh build notes logged documents: %q", note.String())
	}
	addUncompacted(t, dir)
	note.Reset()
	if err := run(dir, "disease | anatomy", 3, "context", "bm25", 0, false, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := "note: 3 acknowledged documents in the generation-0 ingestion log"; !strings.Contains(note.String(), want) {
		t.Fatalf("notes %q lack %q", note.String(), want)
	}
}

// TestQuarantinedViewRanksStraightforward: one flipped byte in the count
// column of shard 0's first view leaves its views.gob opening, but the
// first query that would use the view quarantines it — the query ranks
// exactly as the straightforward plan does — and -verify fails.
func TestQuarantinedViewRanksStraightforward(t *testing.T) {
	dir := buildData(t, 2)
	path := filepath.Join(shard.ShardDir(dir, 0), "views.gob")
	cat, err := views.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The smallest view is written first, and every one-keyword context
	// of its K matches it.
	v := cat.Match(nil)
	q := v.TrackedWords()[0] + " | " + v.K()[0]
	cat.Close()
	var before bytes.Buffer
	if err := run(dir, q, 10, "context", "pivoted-tfidf", 0, false, &before); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(before.String(), "plan=view") {
		t.Fatalf("%q does not use a view before the corruption:\n%s", q, before.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := snapshot.OpenPaged(data)
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := pf.Section("cols")
	cols[0] ^= 1 // the section aliases data; the first slab opens with the count column
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := run(dir, q, 10, "context", "pivoted-tfidf", 0, false, &got); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, q, 10, "straightforward", "pivoted-tfidf", 0, false, &want); err != nil {
		t.Fatal(err)
	}
	if g, w := ranked(got.String()), ranked(want.String()); len(w) == 0 || strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("with shard 0's view quarantined %q ranks\n%s\nthe straightforward plan ranks\n%s", q, got.String(), want.String())
	}
	var out bytes.Buffer
	err = verifyData(dir, &out)
	if err == nil || !strings.Contains(err.Error(), "shard 0: quarantined") || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("-verify over a corrupt count column: %v\n%s", err, out.String())
	}
}
