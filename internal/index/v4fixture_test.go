package index_test

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"csrank/internal/core"
	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/ranking"
)

// fixtureCorpus returns the documents testdata/v4-corpus.idx was built
// from: the first 300 documents of corpus.DefaultConfig's seed, with no
// benchmark topics.
func fixtureCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	cfg := corpus.DefaultConfig()
	cfg.NumDocs, cfg.NumTopics = 300, 0
	c, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestV4FixtureOpens: testdata/v4-corpus.idx is a paged format-v4 file
// (page size 256, segment size 16) that the last build writing v4
// wrote from fixtureCorpus. It still opens, and its DF, TotalTF, Terms,
// TermsWithMinDF, postings, and the top 20 of contextual and plain
// queries under every scorer equal those of its v5 re-save and of a
// fresh build.
func TestV4FixtureOpens(t *testing.T) {
	v4, err := index.OpenMapped(filepath.Join("testdata", "v4-corpus.idx"))
	if err != nil {
		t.Fatal(err)
	}
	defer v4.Close()
	if v := v4.FormatVersion(); v != 4 {
		t.Fatalf("fixture opens as format v%d, want v4", v)
	}
	fresh, err := fixtureCorpus(t).BuildIndex(16)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.gob")
	if err := v4.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	v5, err := index.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v5.Close()
	if v := v5.FormatVersion(); v != index.MappedFormatVersion {
		t.Fatalf("re-save opens as format v%d, want v%d", v, index.MappedFormatVersion)
	}

	queries := fixtureQueries(t, v4)
	for name, ix := range map[string]*index.Index{"v5 re-save": v5, "fresh build": fresh} {
		if ix.NumDocs() != v4.NumDocs() {
			t.Fatalf("%s: %d docs, fixture %d", name, ix.NumDocs(), v4.NumDocs())
		}
		for _, f := range v4.Schema().Fields {
			terms := v4.Terms(f.Name)
			if len(terms) == 0 || !slices.Equal(terms, ix.Terms(f.Name)) {
				t.Fatalf("%s: field %q: %d terms, fixture %d", name, f.Name, len(ix.Terms(f.Name)), len(terms))
			}
			if !slices.Equal(v4.TermsWithMinDF(f.Name, 3), ix.TermsWithMinDF(f.Name, 3)) {
				t.Fatalf("%s: field %q: TermsWithMinDF differs", name, f.Name)
			}
			for _, term := range terms {
				if v4.DF(f.Name, term) != ix.DF(f.Name, term) || v4.TotalTF(f.Name, term) != ix.TotalTF(f.Name, term) {
					t.Fatalf("%s: field %q term %q: DF/TotalTF %d/%d, fixture %d/%d", name, f.Name, term,
						ix.DF(f.Name, term), ix.TotalTF(f.Name, term), v4.DF(f.Name, term), v4.TotalTF(f.Name, term))
				}
				if !slices.Equal(postingsOf(v4.Postings(f.Name, term)), postingsOf(ix.Postings(f.Name, term))) {
					t.Fatalf("%s: field %q term %q: postings differ", name, f.Name, term)
				}
			}
		}
		for _, sc := range ranking.All() {
			want, got := core.New(v4, nil, core.Options{Scorer: sc}), core.New(ix, nil, core.Options{Scorer: sc})
			for _, q := range queries {
				wr, _, err := want.Search(context.Background(), q, 20, "")
				if err != nil {
					t.Fatal(err)
				}
				gr, _, err := got.Search(context.Background(), q, 20, "")
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(wr, gr) {
					t.Fatalf("%s: %s: %v: top 20 %v, fixture %v", name, sc.Name(), q, gr, wr)
				}
			}
		}
	}
}

// fixtureQueries returns plain and contextual queries over the
// fixture's frequent terms, every one with a non-empty answer.
func fixtureQueries(t *testing.T, ix *index.Index) []query.Query {
	t.Helper()
	schema := ix.Schema()
	words := ix.TermsWithMinDF(schema.ContentField, 20)
	preds := ix.TermsWithMinDF(schema.PredicateField, 20)
	if len(words) < 8 || len(preds) < 4 {
		t.Fatalf("fixture has %d frequent words and %d frequent predicates", len(words), len(preds))
	}
	var qs []query.Query
	for i := 0; i < 4; i++ {
		qs = append(qs,
			query.Query{Keywords: []string{words[2*i]}},
			query.Query{Keywords: []string{words[2*i+1]}, Context: []string{preds[i]}},
			query.Query{Keywords: []string{words[i], words[i+4]}, Context: []string{preds[0]}},
		)
	}
	eng := core.New(ix, nil, core.Options{})
	for _, q := range qs {
		if res, _, err := eng.Search(context.Background(), q, 20, ""); err != nil || len(res) == 0 {
			t.Fatalf("query %v: %d results, err %v", q, len(res), err)
		}
	}
	return qs
}

// postingsOf returns l's postings as (doc, tf) pairs.
func postingsOf(l *postings.List) []string {
	var out []string
	l.ForEach(func(d, tf uint32) { out = append(out, fmt.Sprint(d, tf)) })
	return out
}
