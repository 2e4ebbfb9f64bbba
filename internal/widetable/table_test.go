package widetable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"csrank/internal/analysis"
	"csrank/internal/index"
)

func buildIndex(t *testing.T, docs []index.Document) *index.Index {
	t.Helper()
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
	return ix
}

func doc(content, mesh string) index.Document {
	return index.Document{Fields: map[string]string{"content": content, "mesh": mesh}}
}

func smallTable(t *testing.T) *Table {
	ix := buildIndex(t, []index.Document{
		doc("w1 w1 w2", "m1 m2"),
		doc("w2", "m2"),
		doc("w1 w3 w3 w3", "m1 m3"),
		doc("w3", "m1 m2 m3"),
	})
	return FromIndex(ix, []string{"w1", "w2", "w3"})
}

func TestTableShape(t *testing.T) {
	tbl := smallTable(t)
	if tbl.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d", tbl.NumDocs())
	}
	if got := tbl.cols; len(got) != 3 {
		t.Fatalf("columns = %v", got)
	}
	if _, ok := tbl.ColumnID("m2"); !ok {
		t.Error("m2 column missing")
	}
	if _, ok := tbl.ColumnID("zzz"); ok {
		t.Error("phantom column")
	}
	if got := tbl.TrackedWords(); len(got) != 3 {
		t.Errorf("TrackedWords = %v", got)
	}
	if !tbl.Tracked("w1") || tbl.Tracked("w9") {
		t.Error("Tracked wrong")
	}
}

func TestTableMembership(t *testing.T) {
	tbl := smallTable(t)
	m1, _ := tbl.ColumnID("m1")
	m2, _ := tbl.ColumnID("m2")
	if !tbl.Has(0, m1) || !tbl.Has(0, m2) {
		t.Error("doc 0 membership wrong")
	}
	if tbl.Has(1, m1) {
		t.Error("doc 1 should lack m1")
	}
	if got := len(tbl.Row(3)); got != 3 {
		t.Errorf("Row(3) = %d cols", got)
	}
}

func TestTableParameters(t *testing.T) {
	tbl := smallTable(t)
	if tbl.Len(0) != 3 {
		t.Errorf("Len(0) = %d", tbl.Len(0))
	}
	tf := func(w string, d uint32) int64 {
		c := tbl.tf[w]
		if i, ok := slices.BinarySearch(c.docs, d); ok {
			return c.tfs[i]
		}
		return 0
	}
	if got := tf("w1", 0); got != 2 {
		t.Errorf("TF(w1,0) = %d", got)
	}
	if got := tf("w3", 2); got != 3 {
		t.Errorf("TF(w3,2) = %d", got)
	}
	if got := tf("w1", 1); got != 0 {
		t.Errorf("TF(w1,1) = %d", got)
	}
}

// TestTFColumnsArePostingLists checks that every tf column lists its
// word's documents in ascending order, each with its posting's tf: the
// order view materialization and the aggregations walk.
func TestTFColumnsArePostingLists(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []string{"w1", "w2", "w3", "w4"}
	docs := make([]index.Document, 500)
	for i := range docs {
		content := "filler"
		for _, w := range words {
			for k := rng.Intn(3); k > 0; k-- {
				content += " " + w
			}
		}
		docs[i] = doc(content, "m1")
	}
	ix := buildIndex(t, docs)
	tbl := FromIndex(ix, words)
	for _, w := range words {
		var wantDocs []uint32
		var wantTFs []int64
		ix.Postings("content", w).ForEach(func(docID, tf uint32) {
			wantDocs = append(wantDocs, docID)
			wantTFs = append(wantTFs, int64(tf))
		})
		gotDocs, gotTFs := tbl.TFColumn(w)
		if !slices.IsSorted(gotDocs) {
			t.Errorf("%s: column docs not ascending", w)
		}
		if !slices.Equal(gotDocs, wantDocs) || !slices.Equal(gotTFs, wantTFs) {
			t.Errorf("%s: column (%d docs) differs from its posting list (%d postings)", w, len(gotDocs), len(wantDocs))
		}
	}
	if docs, tfs := tbl.TFColumn("untracked"); docs != nil || tfs != nil {
		t.Error("untracked word has a column")
	}
}

func TestAggregations(t *testing.T) {
	tbl := smallTable(t)
	cases := []struct {
		pred []string
		n    int64
		len  int64
	}{
		{[]string{"m1"}, 3, 3 + 4 + 1},
		{[]string{"m2"}, 3, 3 + 1 + 1},
		{[]string{"m1", "m2"}, 2, 3 + 1},
		{[]string{"m1", "m2", "m3"}, 1, 1},
		{nil, 4, 9},
	}
	for _, c := range cases {
		n, err := tbl.Count(c.pred)
		if err != nil {
			t.Fatal(err)
		}
		if n != c.n {
			t.Errorf("Count(%v) = %d, want %d", c.pred, n, c.n)
		}
		l, err := tbl.SumLen(c.pred)
		if err != nil {
			t.Fatal(err)
		}
		if l != c.len {
			t.Errorf("SumLen(%v) = %d, want %d", c.pred, l, c.len)
		}
	}
}

func TestDFTC(t *testing.T) {
	tbl := smallTable(t)
	df, err := tbl.DF("w1", []string{"m1"})
	if err != nil {
		t.Fatal(err)
	}
	if df != 2 { // docs 0 and 2 have m1 and contain w1
		t.Errorf("DF(w1|m1) = %d, want 2", df)
	}
	tc, err := tbl.TC("w3", []string{"m1"})
	if err != nil {
		t.Fatal(err)
	}
	if tc != 4 { // doc2 has 3, doc3 has 1
		t.Errorf("TC(w3|m1) = %d, want 4", tc)
	}
	df, err = tbl.DF("w2", []string{"m3"})
	if err != nil {
		t.Fatal(err)
	}
	if df != 0 {
		t.Errorf("DF(w2|m3) = %d, want 0", df)
	}
}

func TestErrors(t *testing.T) {
	tbl := smallTable(t)
	if _, err := tbl.Count([]string{"nosuch"}); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := tbl.DF("untracked", []string{"m1"}); err == nil {
		t.Error("untracked word accepted in DF")
	}
	if _, err := tbl.TC("untracked", []string{"m1"}); err == nil {
		t.Error("untracked word accepted in TC")
	}
}

// TestAgainstBruteForce cross-checks the table's aggregation queries
// against a naive recount on a random collection.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	meshTerms := []string{"m1", "m2", "m3", "m4", "m5"}
	words := []string{"w1", "w2", "w3"}
	n := 300
	docs := make([]index.Document, n)
	type rawDoc struct {
		mesh map[string]bool
		tf   map[string]int
	}
	raw := make([]rawDoc, n)
	for i := range docs {
		rd := rawDoc{mesh: map[string]bool{}, tf: map[string]int{}}
		var meshStr, contentStr string
		for _, m := range meshTerms {
			if rng.Float64() < 0.4 {
				rd.mesh[m] = true
				meshStr += m + " "
			}
		}
		for _, w := range words {
			k := rng.Intn(4)
			rd.tf[w] = k
			for j := 0; j < k; j++ {
				contentStr += w + " "
			}
		}
		if contentStr == "" {
			contentStr = "filler"
		}
		raw[i] = rd
		docs[i] = doc(contentStr, meshStr)
	}
	tbl := FromIndex(buildIndex(t, docs), words)

	for trial := 0; trial < 30; trial++ {
		var pred []string
		for _, m := range meshTerms {
			if rng.Float64() < 0.4 {
				pred = append(pred, m)
			}
		}
		match := func(rd rawDoc) bool {
			for _, p := range pred {
				if !rd.mesh[p] {
					return false
				}
			}
			return true
		}
		var wantN, wantLen int64
		wantDF := map[string]int64{}
		wantTC := map[string]int64{}
		for _, rd := range raw {
			if !match(rd) {
				continue
			}
			wantN++
			for _, w := range words {
				wantLen += int64(rd.tf[w])
				if rd.tf[w] > 0 {
					wantDF[w]++
					wantTC[w] += int64(rd.tf[w])
				}
			}
			if rd.tf["w1"]+rd.tf["w2"]+rd.tf["w3"] == 0 {
				wantLen++ // the "filler" token
			}
		}
		n, err := tbl.Count(pred)
		if err != nil {
			t.Fatal(err)
		}
		if n != wantN {
			t.Fatalf("Count(%v) = %d, want %d", pred, n, wantN)
		}
		l, _ := tbl.SumLen(pred)
		if l != wantLen {
			t.Fatalf("SumLen(%v) = %d, want %d", pred, l, wantLen)
		}
		for _, w := range words {
			df, _ := tbl.DF(w, pred)
			if df != wantDF[w] {
				t.Fatalf("DF(%s|%v) = %d, want %d", w, pred, df, wantDF[w])
			}
			tc, _ := tbl.TC(w, pred)
			if tc != wantTC[w] {
				t.Fatalf("TC(%s|%v) = %d, want %d", w, pred, tc, wantTC[w])
			}
		}
	}
}

func TestFromIndexSkipsUnknownTrackedWords(t *testing.T) {
	ix := buildIndex(t, []index.Document{doc("w1", "m1")})
	tbl := FromIndex(ix, []string{"w1", "ghost"})
	if tbl.Tracked("ghost") {
		t.Error("ghost word tracked")
	}
	if !tbl.Tracked("w1") {
		t.Error("w1 not tracked")
	}
}

func ExampleTable_Count() {
	// Count documents annotated with both m1 and m2.
	schema := index.Schema{
		Fields: []index.FieldSpec{
			{Name: "content", Analyzer: analysis.Keyword()},
			{Name: "mesh", Analyzer: analysis.Keyword()},
		},
		PredicateField: "mesh",
		ContentField:   "content",
	}
	ix, _ := index.BuildFrom(schema, 0, []index.Document{
		{Fields: map[string]string{"content": "a", "mesh": "m1 m2"}},
		{Fields: map[string]string{"content": "b", "mesh": "m1"}},
	})
	tbl := FromIndex(ix, nil)
	n, _ := tbl.Count([]string{"m1", "m2"})
	fmt.Println(n)
	// Output: 1
}
