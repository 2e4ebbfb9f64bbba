package views

import (
	"fmt"
	"math/rand"
	"testing"

	"csrank/internal/analysis"
	"csrank/internal/index"
	"csrank/internal/widetable"
)

// The tests in this file hold the group table to one definition: the
// brute-force aggregation queries of widetable.Table. Every way a view
// comes to hold its rows — Materialize, the paged reader, the legacy
// decoders — must answer exactly what the table answers.

var oracleSchema = index.Schema{
	Fields: []index.FieldSpec{
		{Name: "content", Analyzer: analysis.Keyword()},
		{Name: "mesh", Analyzer: analysis.Keyword()},
	},
	PredicateField: "mesh",
	ContentField:   "content",
}

// oracleDocs draws nDocs documents over nMesh predicate terms (each set
// with probability density) and nWords content words.
func oracleDocs(rng *rand.Rand, nDocs, nMesh, nWords int, density float64) (docs []index.Document, mesh, words []string) {
	for i := 0; i < nMesh; i++ {
		mesh = append(mesh, fmt.Sprintf("m%03d", i))
	}
	for i := 0; i < nWords; i++ {
		words = append(words, fmt.Sprintf("w%02d", i))
	}
	docs = make([]index.Document, nDocs)
	for i := range docs {
		var m, content string
		for _, term := range mesh {
			if rng.Float64() < density {
				m += term + " "
			}
		}
		for _, w := range words {
			for k := rng.Intn(3); k > 0; k-- {
				content += w + " "
			}
		}
		docs[i] = index.Document{Fields: map[string]string{"content": content + "pad", "mesh": m}}
	}
	return docs, mesh, words
}

func oracleIndex(t testing.TB, docs []index.Document) *index.Index {
	t.Helper()
	ix, err := index.BuildFrom(oracleSchema, 0, docs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// checkAgainstTable compares v.Answer with the table's aggregation
// queries over a spread of contexts within k: the empty one, every single
// term, and random subsets up to size 4 (which at high |K| mostly select
// nothing). asked mixes tracked words, a word the table has but the view
// does not track, a word nobody has, and a repeat.
func checkAgainstTable(t *testing.T, rng *rand.Rand, v *View, tbl *widetable.Table, k, tracked []string, untracked string) (emptySelections int) {
	t.Helper()
	asked := append(append([]string{}, tracked...), untracked, "no-such-word")
	if len(tracked) > 0 {
		asked = append(asked, tracked[0])
	}
	contexts := [][]string{nil}
	for _, m := range k {
		contexts = append(contexts, []string{m})
	}
	for i := 0; i < 40; i++ {
		var p []string
		for _, j := range rng.Perm(len(k))[:min(len(k), 1+rng.Intn(4))] {
			p = append(p, k[j])
		}
		contexts = append(contexts, p)
	}
	for _, p := range contexts {
		got, err := v.Answer(p, asked, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantN, _ := tbl.Count(p)
		wantLen, _ := tbl.SumLen(p)
		if got.Count != wantN || got.Len != wantLen {
			t.Fatalf("P=%v: Answer {%d,%d}, table {%d,%d}", p, got.Count, got.Len, wantN, wantLen)
		}
		if wantN == 0 {
			emptySelections++
		}
		for _, w := range tracked {
			wantDF, _ := tbl.DF(w, p)
			wantTC, _ := tbl.TC(w, p)
			if got.DF[w] != wantDF || got.TC[w] != wantTC {
				t.Fatalf("P=%v: df/tc(%s) = %d/%d, table %d/%d", p, w, got.DF[w], got.TC[w], wantDF, wantTC)
			}
		}
		if len(got.DF) != len(tracked) || len(got.TC) != len(tracked) {
			t.Fatalf("P=%v: answered words %v, want exactly the tracked %v", p, got.DF, tracked)
		}
	}
	return emptySelections
}

// TestAnswerEqualsWideTable is the property test of Answer: |K| on both
// sides of the byte and word boundaries of a pattern, row counts on both
// sides of the word boundary of a selection bitset.
func TestAnswerEqualsWideTable(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []struct {
		nK, nDocs int
		density   float64
	}{
		{1, 90, 0.3}, {8, 400, 0.3}, {63, 100, 0.3}, {64, 128, 0.3}, {65, 192, 0.3}, {130, 128, 0.3}, {130, 77, 0.05},
	}
	var wholeWords, partialWords, emptySelections int
	for _, c := range cases {
		docs, _, words := oracleDocs(rng, c.nDocs, c.nK+20, 5, c.density)
		ix := oracleIndex(t, docs)
		tbl := widetable.FromIndex(ix, words)
		// Only terms some document carries are columns of the table.
		k, tracked := ix.Terms(ix.Schema().PredicateField)[:c.nK], words[:3]
		v, err := Materialize(tbl, k, tracked)
		if err != nil {
			t.Fatal(err)
		}
		if want := EstimateSize(tbl, k, 0, nil); v.Size() != want {
			t.Fatalf("|K|=%d: Size %d, exact size %d", c.nK, v.Size(), want)
		}
		if v.rows%64 == 0 {
			wholeWords++
		} else {
			partialWords++
		}
		emptySelections += checkAgainstTable(t, rng, v, tbl, k, tracked, words[4])
	}
	if wholeWords == 0 || partialWords == 0 || emptySelections == 0 {
		t.Fatalf("cases lost coverage: %d row counts divisible by 64, %d not, %d empty selections", wholeWords, partialWords, emptySelections)
	}
}

// TestAnswerCountsRepeatedWordOnce is the regression test for requested
// words being accumulated once per occurrence.
func TestAnswerCountsRepeatedWordOnce(t *testing.T) {
	tbl, meshTerms, words := randomTable(t, 5, 200, 6, 3)
	v, err := Materialize(tbl, meshTerms[:3], words)
	if err != nil {
		t.Fatal(err)
	}
	p := meshTerms[:1]
	once, _ := v.Answer(p, words[:1], nil)
	twice, _ := v.Answer(p, []string{words[0], words[0]}, nil)
	if once.DF[words[0]] == 0 {
		t.Fatal("probe word absent from the context; pick another seed")
	}
	if twice.DF[words[0]] != once.DF[words[0]] || twice.TC[words[0]] != once.TC[words[0]] {
		t.Fatalf("word asked twice: df/tc %d/%d, asked once %d/%d",
			twice.DF[words[0]], twice.TC[words[0]], once.DF[words[0]], once.TC[words[0]])
	}
}
