package index

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// randomBuildDocs draws documents whose text exercises every analyzer
// branch the build depends on: mixed case (lowered copies), non-ASCII
// letters, stopwords, stemmable suffixes, and intra-word punctuation.
func randomBuildDocs(rng *rand.Rand, n int) []Document {
	words := []string{
		"Pancreas", "transplants", "studies", "the", "OF", "leukemia", "IL-2",
		"don't", "Ärger", "straße", "İnfection", "cells", "stopped", "running",
		"alpha", "beta", "gamma", "delta", "x", "42", "a--b",
	}
	mesh := []string{"neoplasms", "hemic_system", "Digestive_System", "viruses", "m1"}
	docs := make([]Document, n)
	for i := range docs {
		var content, title []string
		for w := 2 + rng.Intn(20); w > 0; w-- {
			content = append(content, words[rng.Intn(len(words))])
		}
		for w := 1 + rng.Intn(4); w > 0; w-- {
			title = append(title, words[rng.Intn(len(words))])
		}
		docs[i] = doc(strings.Join(title, " "), strings.Join(content, ", "),
			mesh[rng.Intn(len(mesh))]+" "+mesh[rng.Intn(len(mesh))])
	}
	return docs
}

// sequentialBuild is the reference BuildFrom must equal: one Builder
// adding every document in order on the calling goroutine.
func sequentialBuild(t *testing.T, docs []Document) *Index {
	t.Helper()
	b := newBuilder(testSchema(), 16, 0)
	for _, d := range docs {
		b.Add(d)
	}
	ix, err := b.build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestBuildFromEqualsSequentialBuilder: the parallel range build is the
// sequential Builder.Add loop term by term — postings, TFs, bounds,
// TotalTF, lengths, stored fields — at every GOMAXPROCS and for batches
// below, at and above the parallel threshold.
func TestBuildFromEqualsSequentialBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	docs := randomBuildDocs(rng, 4*minDocsPerWorker+37)
	sizes := []int{0, 1, minDocsPerWorker - 1, minDocsPerWorker, 2 * minDocsPerWorker, len(docs)}
	want := make([]*Index, len(sizes))
	for i, n := range sizes {
		want[i] = sequentialBuild(t, docs[:n])
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i, n := range sizes {
			t.Run(fmt.Sprintf("procs=%d/docs=%d", procs, n), func(t *testing.T) {
				got, err := BuildFrom(testSchema(), 16, docs[:n])
				if err != nil {
					t.Fatal(err)
				}
				assertIndexEqual(t, got, want[i])
			})
		}
	}
}

// TestDictionaryKeysDoNotAliasDocuments: analysis hands out terms that
// are substrings of the document text, but the dictionary — and every
// term a caller gets from it — must be its own copy, so an index built
// in a long-running process (refresh, compaction, WAL replay) never
// pins the documents it was built from.
// Likewise every string a mapped index hands out — terms, frequent
// terms, stored fields — is a heap copy: compaction unmaps a retired
// generation while its strings may still be in use, so they are read
// here after Close.
func TestDictionaryKeysDoNotAliasDocuments(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	docs := randomBuildDocs(rand.New(rand.NewSource(7)), 2*minDocsPerWorker+5)
	// The spans below are checked only while docs is alive: a freed
	// text's memory may be reused for a key.
	defer runtime.KeepAlive(docs)
	type span struct{ lo, hi uintptr }
	var texts []span
	for _, d := range docs {
		for _, s := range d.Fields {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 {
				texts = append(texts, span{p, p + uintptr(len(s))})
			}
		}
	}
	base, err := BuildFrom(testSchema(), 16, docs[:minDocsPerWorker])
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Extend(base, docs[minDocsPerWorker:])
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildFrom(testSchema(), 16, docs)
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*Index{"BuildFrom": full, "Extend": ext} {
		keys := 0
		inText := func(p uintptr) bool {
			for _, s := range texts {
				if p >= s.lo && p < s.hi {
					return true
				}
			}
			return false
		}
		for field, fi := range ix.fields {
			if len(fi.dict.blob) > 0 && inText(uintptr(unsafe.Pointer(unsafe.SliceData(fi.dict.blob)))) {
				t.Fatalf("%s: field %q dictionary points into a document's text", name, field)
			}
			for _, term := range ix.Terms(field) {
				keys++
				if inText(uintptr(unsafe.Pointer(unsafe.StringData(term)))) {
					t.Fatalf("%s: field %q key %q points into a document's text", name, field, term)
				}
			}
		}
		if keys == 0 {
			t.Fatalf("%s: no dictionary key checked", name)
		}
	}

	path := filepath.Join(t.TempDir(), "index.gob")
	if err := full.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	mx, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, f := range testSchema().Fields {
		got = append(got, mx.Terms(f.Name)...)
		got = append(got, mx.TermsWithMinDF(f.Name, 2)...)
		want = append(want, full.Terms(f.Name)...)
		want = append(want, full.TermsWithMinDF(f.Name, 2)...)
		for d := DocID(0); int(d) < full.NumDocs(); d++ {
			got = append(got, mx.StoredField(d, f.Name))
			want = append(want, full.StoredField(d, f.Name))
		}
	}
	if err := mx.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	// A string aliasing the released mapping faults here.
	if !slices.Equal(got, want) {
		t.Fatal("strings read from a closed mapped index differ from the in-memory index's")
	}
}

// TestAnalysisPanicIsReturnedAsError: a panic in any analysis range —
// a worker goroutine's or the caller's own — comes back from BuildFrom
// and Extend as an error instead of crashing the process.
func TestAnalysisPanicIsReturnedAsError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer func() { testHookAddRange = nil }()
	docs := randomBuildDocs(rand.New(rand.NewSource(3)), 2*minDocsPerWorker)
	base, err := BuildFrom(testSchema(), 16, docs[:10])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		at   DocID // first DocID of the range that panics
		run  func() error
	}{
		{"BuildFrom/worker", 0, func() error { _, err := BuildFrom(testSchema(), 16, docs); return err }},
		{"BuildFrom/caller", minDocsPerWorker, func() error { _, err := BuildFrom(testSchema(), 16, docs); return err }},
		{"BuildFrom/sequential", 0, func() error { _, err := BuildFrom(testSchema(), 16, docs[:5]); return err }},
		{"Extend/worker", 10, func() error { _, err := Extend(base, docs); return err }},
	} {
		testHookAddRange = func(first DocID) {
			if first == tc.at {
				panic("injected analysis panic")
			}
		}
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), "injected analysis panic") {
			t.Errorf("%s: err = %v, want the injected panic", tc.name, err)
		}
	}
}
