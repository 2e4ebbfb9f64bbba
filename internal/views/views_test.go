package views

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"csrank/internal/analysis"
	"csrank/internal/index"
	"csrank/internal/postings"
	"csrank/internal/widetable"
)

// randomTable builds a random index-backed wide table for differential
// testing: nDocs docs over nMesh predicate terms and nWords content words.
func randomTable(t *testing.T, seed int64, nDocs, nMesh, nWords int) (*widetable.Table, []string, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	meshTerms := make([]string, nMesh)
	for i := range meshTerms {
		meshTerms[i] = fmt.Sprintf("m%02d", i)
	}
	words := make([]string, nWords)
	for i := range words {
		words[i] = fmt.Sprintf("w%02d", i)
	}
	docs := make([]index.Document, nDocs)
	for i := range docs {
		var meshStr, content string
		for _, m := range meshTerms {
			if rng.Float64() < 0.3 {
				meshStr += m + " "
			}
		}
		for _, w := range words {
			for k := rng.Intn(3); k > 0; k-- {
				content += w + " "
			}
		}
		if content == "" {
			content = "pad"
		}
		docs[i] = index.Document{Fields: map[string]string{"content": content, "mesh": meshStr}}
	}
	schema := index.Schema{
		Fields: []index.FieldSpec{
			{Name: "content", Analyzer: analysis.Keyword()},
			{Name: "mesh", Analyzer: analysis.Keyword()},
		},
		PredicateField: "mesh",
		ContentField:   "content",
	}
	ix, err := index.BuildFrom(schema, 0, docs)
	if err != nil {
		t.Fatal(err)
	}
	return widetable.FromIndex(ix, words), meshTerms, words
}

func TestMaterializeAndAnswerSmall(t *testing.T) {
	// The worked Example 4.1: K = {m1,m2,m3}, query P = {m1,m3}.
	tbl, meshTerms, words := randomTable(t, 1, 200, 6, 4)
	k := meshTerms[:3]
	v, err := Materialize(tbl, k, words)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() == 0 || v.Size() > 8 {
		t.Fatalf("Size = %d, want 1..8 for |K|=3", v.Size())
	}
	p := []string{meshTerms[0], meshTerms[2]}
	var st postings.Stats
	got, err := v.Answer(p, words, &st)
	if err != nil {
		t.Fatal(err)
	}
	wantN, _ := tbl.Count(p)
	wantLen, _ := tbl.SumLen(p)
	if got.Count != wantN || got.Len != wantLen {
		t.Errorf("Answer = {%d,%d}, oracle = {%d,%d}", got.Count, got.Len, wantN, wantLen)
	}
	for _, w := range words {
		wantDF, _ := tbl.DF(w, p)
		wantTC, _ := tbl.TC(w, p)
		if got.DF[w] != wantDF || got.TC[w] != wantTC {
			t.Errorf("df/tc(%s) = %d/%d, oracle %d/%d", w, got.DF[w], got.TC[w], wantDF, wantTC)
		}
	}
	if st.ViewGroupsScanned != int64(v.Size()) {
		t.Errorf("ViewGroupsScanned = %d, want %d", st.ViewGroupsScanned, v.Size())
	}
}

// TestAnswerMatchesOracle is the main differential test: for random K and
// random P ⊆ K, the view's answers must equal the wide table's direct
// aggregation queries.
func TestAnswerMatchesOracle(t *testing.T) {
	tbl, meshTerms, words := randomTable(t, 7, 500, 12, 5)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		// Random K of size 2..9.
		perm := rng.Perm(len(meshTerms))
		k := make([]string, 2+rng.Intn(8))
		for i := range k {
			k[i] = meshTerms[perm[i]]
		}
		v, err := Materialize(tbl, k, words)
		if err != nil {
			t.Fatal(err)
		}
		// Random P ⊆ K.
		var p []string
		for _, m := range k {
			if rng.Float64() < 0.5 {
				p = append(p, m)
			}
		}
		got, err := v.Answer(p, words, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantN, _ := tbl.Count(p)
		wantLen, _ := tbl.SumLen(p)
		if got.Count != wantN || got.Len != wantLen {
			t.Fatalf("trial %d: Answer{%d,%d} oracle{%d,%d} (K=%v P=%v)",
				trial, got.Count, got.Len, wantN, wantLen, k, p)
		}
		for _, w := range words {
			wantDF, _ := tbl.DF(w, p)
			wantTC, _ := tbl.TC(w, p)
			if got.DF[w] != wantDF || got.TC[w] != wantTC {
				t.Fatalf("trial %d: df/tc(%s) %d/%d oracle %d/%d",
					trial, w, got.DF[w], got.TC[w], wantDF, wantTC)
			}
		}
	}
}

func TestGroupCountsSumToCollection(t *testing.T) {
	// Σ over groups of Count = |D| (every doc falls in exactly one group,
	// including the all-zero pattern).
	tbl, meshTerms, _ := randomTable(t, 5, 300, 8, 2)
	v, err := Materialize(tbl, meshTerms[:4], nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.Answer(nil, nil, nil) // empty P matches every group
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != int64(tbl.NumDocs()) {
		t.Errorf("sum of group counts = %d, want %d", got.Count, tbl.NumDocs())
	}
}

func TestUsability(t *testing.T) {
	tbl, meshTerms, _ := randomTable(t, 2, 100, 6, 2)
	v, err := Materialize(tbl, meshTerms[:3], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Usable([]string{meshTerms[0], meshTerms[2]}) {
		t.Error("subset context should be usable")
	}
	if !v.Usable(nil) {
		t.Error("empty context should be usable")
	}
	if v.Usable([]string{meshTerms[4]}) {
		t.Error("non-subset context usable (violates Theorem 4.1)")
	}
	if _, err := v.Answer([]string{meshTerms[4]}, nil, nil); err == nil {
		t.Error("Answer should fail for unusable context")
	}
}

func TestMaterializeErrors(t *testing.T) {
	tbl, _, _ := randomTable(t, 2, 50, 4, 2)
	if _, err := Materialize(tbl, []string{"ghost"}, nil); err != nil {
		// expected
	} else {
		t.Error("unknown keyword column accepted")
	}
}

func TestMaterializeDedupsK(t *testing.T) {
	tbl, meshTerms, _ := randomTable(t, 2, 50, 4, 2)
	v, err := Materialize(tbl, []string{meshTerms[1], meshTerms[0], meshTerms[1]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.K()) != 2 {
		t.Errorf("K = %v", v.K())
	}
	if v.K()[0] > v.K()[1] {
		t.Error("K not sorted")
	}
}

func TestTrackedWords(t *testing.T) {
	tbl, meshTerms, words := randomTable(t, 3, 50, 4, 3)
	v, err := Materialize(tbl, meshTerms[:2], words[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !v.TracksWord(words[0]) || v.TracksWord(words[2]) {
		t.Error("TracksWord wrong")
	}
	if got := v.TrackedWords(); len(got) != 2 {
		t.Errorf("TrackedWords = %v", got)
	}
	// Untracked words are absent from answers, not zero-filled.
	got, err := v.Answer(nil, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.DF[words[2]]; ok {
		t.Error("untracked word appeared in answer")
	}
}

func TestViewBytesAndString(t *testing.T) {
	tbl, meshTerms, words := randomTable(t, 4, 100, 5, 2)
	v, _ := Materialize(tbl, meshTerms[:3], words)
	if v.Bytes() <= 0 {
		t.Error("Bytes should be positive")
	}
	if v.String() == "" {
		t.Error("String empty")
	}
}

func TestExactAndEstimatedSize(t *testing.T) {
	tbl, meshTerms, _ := randomTable(t, 8, 1000, 10, 2)
	k := meshTerms[:5]
	v, err := Materialize(tbl, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := EstimateSize(tbl, k, 0, nil)
	if exact != v.Size() {
		t.Errorf("exact size = %d, materialized = %d", exact, v.Size())
	}
	rng := rand.New(rand.NewSource(1))
	est := EstimateSize(tbl, k, 200, rng)
	if est <= 0 || est > exact {
		t.Errorf("estimate %d outside (0, %d]", est, exact)
	}
	// The estimate is the number of distinct membership patterns among the
	// sampled documents, whatever order the caller lists K in: recount it
	// with one Has probe per (document, column) over the same sample.
	unsorted := []string{meshTerms[4], meshTerms[0], meshTerms[3], meshTerms[1]}
	sample := rand.New(rand.NewSource(17)).Perm(tbl.NumDocs())[:150]
	seen := map[string]bool{}
	for _, d := range sample {
		pattern := ""
		for _, name := range unsorted {
			id, _ := tbl.ColumnID(name)
			pattern += fmt.Sprint(tbl.Has(d, id))
		}
		seen[pattern] = true
	}
	if got := EstimateSize(tbl, unsorted, 150, rand.New(rand.NewSource(17))); got != len(seen) {
		t.Errorf("estimate over unsorted K = %d, per-column recount %d", got, len(seen))
	}
	// Unknown column: size 0.
	if EstimateSize(tbl, []string{"ghost"}, 10, rng) != 0 {
		t.Error("unknown column should estimate 0")
	}
}

func TestCatalogMatch(t *testing.T) {
	tbl, meshTerms, _ := randomTable(t, 9, 300, 8, 2)
	big, err := Materialize(tbl, meshTerms[:6], nil)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Materialize(tbl, meshTerms[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog([]*View{big, small}, 10, 4096)
	if cat.Len() != 2 {
		t.Fatalf("Len = %d", cat.Len())
	}
	// Context covered by both: smallest view must win.
	got := cat.Match([]string{meshTerms[0]})
	if got != small {
		t.Errorf("Match picked view with size %d, want smallest %d", got.Size(), small.Size())
	}
	// Context covered only by the big view.
	if got := cat.Match([]string{meshTerms[4]}); got != big {
		t.Error("Match missed the only usable view")
	}
	// Uncovered context.
	if got := cat.Match([]string{meshTerms[7]}); got != nil {
		t.Error("Match returned view for uncovered context")
	}
	if cat.TotalBytes() <= 0 || cat.MaxBytes() <= 0 || cat.MeanSize() <= 0 {
		t.Error("storage accounting not positive")
	}
}

func TestCatalogEmpty(t *testing.T) {
	cat := NewCatalog(nil, 1, 1)
	if cat.Match([]string{"m"}) != nil {
		t.Error("empty catalog matched")
	}
	if cat.MeanSize() != 0 {
		t.Error("empty MeanSize != 0")
	}
}

func TestCatalogPersistRoundTrip(t *testing.T) {
	tbl, meshTerms, words := randomTable(t, 11, 300, 8, 3)
	v1, _ := Materialize(tbl, meshTerms[:4], words)
	v2, _ := Materialize(tbl, meshTerms[3:6], words)
	cat := NewCatalog([]*View{v1, v2}, 42, 4096)
	got := roundTrip(t, cat)
	if got.Len() != 2 || got.ContextThreshold != 42 || got.ViewSizeLimit != 4096 {
		t.Fatalf("decoded catalog = %+v", got)
	}
	// Decoded views answer identically.
	p := []string{meshTerms[0], meshTerms[2]}
	want, err := cat.Match(p).Answer(p, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := got.Match(p).Answer(p, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Count != want.Count || g.Len != want.Len {
		t.Errorf("decoded answer {%d,%d}, want {%d,%d}", g.Count, g.Len, want.Count, want.Len)
	}
	for w := range want.DF {
		if g.DF[w] != want.DF[w] || g.TC[w] != want.TC[w] {
			t.Errorf("decoded df/tc(%s) differ", w)
		}
	}
}

func TestCatalogFileRoundTrip(t *testing.T) {
	tbl, meshTerms, _ := randomTable(t, 12, 100, 5, 2)
	v, _ := Materialize(tbl, meshTerms[:3], nil)
	cat := NewCatalog([]*View{v}, 1, 10)
	path := t.TempDir() + "/views.gob"
	if err := cat.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("Len = %d", got.Len())
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := openPaged([]byte("junk")); err == nil {
		t.Error("garbage opened as format v3")
	}
	if _, err := decodeLegacy(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage decoded")
	}
}

func TestTheorem42CostIndependentOfContextSize(t *testing.T) {
	// Answering from a view costs O(ViewSize) regardless of how many
	// documents the context matches.
	tbl, meshTerms, _ := randomTable(t, 13, 2000, 10, 2)
	v, err := Materialize(tbl, meshTerms[:4], nil)
	if err != nil {
		t.Fatal(err)
	}
	var stBig, stSmall postings.Stats
	// Large context (one predicate) vs small (four predicates).
	if _, err := v.Answer(meshTerms[:1], nil, &stBig); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Answer(meshTerms[:4], nil, &stSmall); err != nil {
		t.Fatal(err)
	}
	if stBig.ViewGroupsScanned != stSmall.ViewGroupsScanned {
		t.Errorf("scan cost differs: %d vs %d", stBig.ViewGroupsScanned, stSmall.ViewGroupsScanned)
	}
	if stBig.ViewGroupsScanned != int64(v.Size()) {
		t.Errorf("scan cost %d != ViewSize %d", stBig.ViewGroupsScanned, v.Size())
	}
}
