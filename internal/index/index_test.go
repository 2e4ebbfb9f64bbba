package index

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"csrank/internal/analysis"
	"csrank/internal/fsx"
	"csrank/internal/postings"
)

func testSchema() Schema {
	return Schema{
		Fields: []FieldSpec{
			{Name: "title", Analyzer: analysis.Standard(), Stored: true},
			{Name: "content", Analyzer: analysis.Standard()},
			{Name: "mesh", Analyzer: analysis.Keyword()},
		},
		PredicateField: "mesh",
		ContentField:   "content",
	}
}

func doc(title, content, mesh string) Document {
	return Document{Fields: map[string]string{"title": title, "content": content, "mesh": mesh}}
}

func buildTestIndex(t *testing.T) *Index {
	t.Helper()
	ix, err := BuildFrom(testSchema(), 4, []Document{
		doc("Complications following pancreas transplant",
			"complications following pancreas transplant surgery outcomes",
			"digestive_system neoplasms"),
		doc("Organ failure in patients with acute leukemia",
			"organ failure patients acute leukemia chemotherapy",
			"digestive_system hemic_system"),
		doc("Leukemia treatment advances",
			"leukemia treatment advances clinical trials",
			"hemic_system neoplasms"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testSchema()
	bad.PredicateField = "nope"
	if err := bad.Validate(); err == nil {
		t.Error("expected error for unknown predicate field")
	}
	bad = testSchema()
	bad.ContentField = "nope"
	if err := bad.Validate(); err == nil {
		t.Error("expected error for unknown content field")
	}
	bad = testSchema()
	bad.Fields[1].Analyzer = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected error for nil analyzer")
	}
	bad = testSchema()
	bad.Fields = append(bad.Fields, FieldSpec{Name: "title", Analyzer: analysis.Keyword()})
	if err := bad.Validate(); err == nil {
		t.Error("expected error for duplicate field")
	}
	bad = testSchema()
	bad.Fields[0].Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("expected error for unnamed field")
	}
}

func TestIndexBasics(t *testing.T) {
	ix := buildTestIndex(t)
	if ix.NumDocs() != 3 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if df := ix.DF("content", "leukemia"); df != 2 {
		t.Errorf("df(leukemia) = %d, want 2", df)
	}
	if df := ix.DF("content", "pancreas"); df != 1 {
		t.Errorf("df(pancreas) = %d, want 1", df)
	}
	if df := ix.DF("mesh", "digestive_system"); df != 2 {
		t.Errorf("df(digestive_system) = %d, want 2", df)
	}
	if df := ix.DF("content", "nosuchterm"); df != 0 {
		t.Errorf("df(nosuchterm) = %d, want 0", df)
	}
	if df := ix.DF("nosuchfield", "leukemia"); df != 0 {
		t.Errorf("df on unknown field = %d, want 0", df)
	}
}

func TestIndexLengths(t *testing.T) {
	ix := buildTestIndex(t)
	// Doc 0 content: 6 tokens, none stopwords, all kept.
	if l := ix.FieldLen(0, "content"); l != 6 {
		t.Errorf("FieldLen(0) = %d, want 6", l)
	}
	var sum int64
	for d := DocID(0); d < 3; d++ {
		sum += ix.FieldLen(d, "content")
	}
	if ix.TotalFieldLen("content") != sum {
		t.Errorf("TotalFieldLen = %d, want %d", ix.TotalFieldLen("content"), sum)
	}
	if ix.FieldLen(99, "content") != 0 {
		t.Error("out-of-range FieldLen should be 0")
	}
}

func TestIndexPostingsSorted(t *testing.T) {
	ix := buildTestIndex(t)
	l := ix.Postings("content", "leukemia")
	if l == nil {
		t.Fatal("no postings for leukemia")
	}
	var ids []uint32
	l.ForEach(func(d, _ uint32) { ids = append(ids, d) })
	if !reflect.DeepEqual(ids, []uint32{1, 2}) {
		t.Errorf("leukemia DocIDs = %v", ids)
	}
}

func TestIndexTermFrequencies(t *testing.T) {
	ix, err := BuildFrom(testSchema(), 4, []Document{
		doc("t", "alpha alpha alpha beta", "m1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ps := postingsOf(ix.Postings("content", "alpha")); len(ps) != 1 || ps[0] != (postings.Posting{DocID: 0, TF: 3}) {
		t.Errorf("postings(alpha) = %v, want [{0 3}]", ps)
	}
}

func TestTermsSortedAndComplete(t *testing.T) {
	ix := buildTestIndex(t)
	terms := ix.Terms("mesh")
	want := []string{"digestive_system", "hemic_system", "neoplasms"}
	if !reflect.DeepEqual(terms, want) {
		t.Errorf("Terms(mesh) = %v, want %v", terms, want)
	}
	if ix.Terms("nosuchfield") != nil {
		t.Error("Terms of unknown field should be nil")
	}
}

func TestTermsWithMinDF(t *testing.T) {
	ix := buildTestIndex(t)
	got := ix.TermsWithMinDF("mesh", 2)
	want := []string{"digestive_system", "hemic_system", "neoplasms"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TermsWithMinDF(2) = %v, want %v", got, want)
	}
	got = ix.TermsWithMinDF("mesh", 3)
	if len(got) != 0 {
		t.Errorf("TermsWithMinDF(3) = %v, want empty", got)
	}
}

// TestTermsWithMinDFAllocatesOnlyItsResult: the dictionary walk reads
// each term's DF from its record in place and copies only the terms
// that pass — no allocation per dictionary term, only per returned term
// (plus the result slice and the amortized growth of the hit list).
func TestTermsWithMinDFAllocatesOnlyItsResult(t *testing.T) {
	ix := synthIndex(t, rand.New(rand.NewSource(12)), 400)
	if ix.UniqueTerms("content") < 100 {
		t.Fatalf("fixture has %d content terms", ix.UniqueTerms("content"))
	}
	for _, minDF := range []int64{1 << 30, 100, 1} {
		n := len(ix.TermsWithMinDF("content", minDF))
		allocs := testing.AllocsPerRun(20, func() { ix.TermsWithMinDF("content", minDF) })
		limit := 0.0
		if n > 0 {
			limit = float64(n) + 1 + math.Ceil(math.Log2(float64(n))) + 1
		}
		if allocs > limit {
			t.Errorf("minDF %d: %v allocations for %d terms returned out of %d, want ≤ %v",
				minDF, allocs, n, ix.UniqueTerms("content"), limit)
		}
	}
}

func TestStoredFields(t *testing.T) {
	ix := buildTestIndex(t)
	if got := ix.StoredField(0, "title"); got != "Complications following pancreas transplant" {
		t.Errorf("StoredField = %q", got)
	}
	if got := ix.StoredField(0, "content"); got != "" {
		t.Errorf("unstored field returned %q", got)
	}
	if got := ix.StoredField(99, "title"); got != "" {
		t.Errorf("out-of-range stored field returned %q", got)
	}
}

func TestUniqueTerms(t *testing.T) {
	ix := buildTestIndex(t)
	if ix.UniqueTerms("mesh") != 3 {
		t.Errorf("UniqueTerms(mesh) = %d, want 3", ix.UniqueTerms("mesh"))
	}
	if ix.UniqueTerms("nosuchfield") != 0 {
		t.Error("UniqueTerms of unknown field should be 0")
	}
}

func TestAnalyzerFor(t *testing.T) {
	ix := buildTestIndex(t)
	if a := ix.AnalyzerFor("mesh"); a == nil || a.RemoveStopwords {
		t.Error("mesh should use keyword analyzer")
	}
	if a := ix.AnalyzerFor("content"); a == nil || !a.RemoveStopwords {
		t.Error("content should use standard analyzer")
	}
	if ix.AnalyzerFor("nosuchfield") != nil {
		t.Error("unknown field should have nil analyzer")
	}
}

func TestBuilderRejectsBadSchema(t *testing.T) {
	s := testSchema()
	s.PredicateField = "bogus"
	if _, err := BuildFrom(s, 0, nil); err == nil {
		t.Error("BuildFrom accepted invalid schema")
	}
}

func TestIndexString(t *testing.T) {
	ix := buildTestIndex(t)
	if s := ix.String(); s == "" {
		t.Error("String() empty")
	}
}

func TestPostingsBytesPositive(t *testing.T) {
	ix := buildTestIndex(t)
	if ix.PostingsBytes() <= 0 {
		t.Error("PostingsBytes should be positive")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	ix := buildTestIndex(t)
	got, err := Decode(bytes.NewReader(encodeV3(t, ix)))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != ix.NumDocs() {
		t.Errorf("NumDocs = %d, want %d", got.NumDocs(), ix.NumDocs())
	}
	if got.DF("content", "leukemia") != ix.DF("content", "leukemia") {
		t.Error("df mismatch after round trip")
	}
	if got.TotalFieldLen("content") != ix.TotalFieldLen("content") {
		t.Error("total length mismatch after round trip")
	}
	if got.StoredField(1, "title") != ix.StoredField(1, "title") {
		t.Error("stored field mismatch after round trip")
	}
	if !reflect.DeepEqual(got.Terms("mesh"), ix.Terms("mesh")) {
		t.Error("mesh dictionary mismatch after round trip")
	}
	// Skip structure must be rebuilt: intersections still work.
	l1 := got.Postings("mesh", "digestive_system")
	l2 := got.Postings("mesh", "neoplasms")
	r := postings.Intersect([]*postings.List{l1, l2}, nil)
	if len(r.DocIDs) != 1 || r.DocIDs[0] != 0 {
		t.Errorf("intersection after round trip = %v", r.DocIDs)
	}
}

func TestPersistFileRoundTrip(t *testing.T) {
	ix := buildTestIndex(t)
	path := t.TempDir() + "/index.gob"
	if err := os.WriteFile(path, encodeV3Framed(t, ix), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFileFS(fsx.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != 3 {
		t.Errorf("NumDocs = %d", got.NumDocs())
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFileFS(fsx.OS, t.TempDir()+"/nope.gob"); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestReadFromGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("expected error for garbage input")
	}
}

// TestLargeIndexConsistency cross-checks df values against a brute-force
// recount on a randomly generated collection.
func TestLargeIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	mesh := []string{"m1", "m2", "m3"}
	n := 500
	docs := make([]Document, n)
	dfWant := map[string]int{}
	for i := range docs {
		var content []byte
		seen := map[string]bool{}
		for j := 0; j < 1+rng.Intn(10); j++ {
			w := vocab[rng.Intn(len(vocab))]
			content = append(content, (w + " ")...)
			seen[w] = true
		}
		for w := range seen {
			dfWant[w]++
		}
		docs[i] = doc("t", string(content), mesh[rng.Intn(len(mesh))])
	}
	ix, err := BuildFrom(testSchema(), 0, docs)
	if err != nil {
		t.Fatal(err)
	}
	for w, want := range dfWant {
		if got := ix.DF("content", w); got != int64(want) {
			t.Errorf("df(%s) = %d, want %d", w, got, want)
		}
	}
}
