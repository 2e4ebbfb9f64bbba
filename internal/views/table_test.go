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
// comes to hold its rows — Materialize, Apply/Remove, either decoder —
// must answer exactly what the table answers.

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
		if len(v.count)%64 == 0 {
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

// TestMaintainedViewEqualsWideTable runs random Apply/Remove schedules —
// at |K| = 70 nearly every document is a group of its own, so removals
// empty rows and re-applications revive them — and then holds the view to
// the table over the surviving documents, and its fingerprint to a view
// materialized from scratch.
func TestMaintainedViewEqualsWideTable(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nK := []int{3, 9, 70}[seed%3]
		docs, mesh, words := oracleDocs(rng, 150, nK, 4, 0.3)
		k, tracked := mesh, words[:3]
		ups := updatesFor(oracleIndex(t, docs), tracked)

		start := 40 + rng.Intn(60)
		v, err := Materialize(widetable.FromIndex(oracleIndex(t, docs[:start]), words), k, tracked)
		if err != nil {
			t.Fatal(err)
		}
		present := make([]bool, len(docs))
		for d := 0; d < start; d++ {
			present[d] = true
		}
		emptied, revived := 0, 0
		for step := 0; step < 600; step++ {
			d := rng.Intn(len(docs))
			before := v.Size()
			if present[d] {
				if err := v.Remove(ups[d]); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if v.Size() < before {
					emptied++
				}
			} else {
				rows := len(v.count)
				v.Apply(ups[d])
				if v.Size() > before && len(v.count) == rows {
					revived++
				}
			}
			present[d] = !present[d]
		}
		if nK == 70 && (emptied == 0 || revived == 0) {
			t.Fatalf("seed %d: schedule emptied %d groups and revived %d, want both", seed, emptied, revived)
		}

		var kept []index.Document
		for d, ok := range present {
			if ok {
				kept = append(kept, docs[d])
			}
		}
		tbl := widetable.FromIndex(oracleIndex(t, kept), words)
		checkAgainstTable(t, rng, v, tbl, k, tracked, words[3])
		fresh, err := Materialize(tbl, k, tracked)
		if err != nil {
			t.Fatal(err)
		}
		if v.Size() != fresh.Size() || v.Bytes() != fresh.Bytes() {
			t.Fatalf("seed %d: maintained Size/Bytes %d/%d, rebuilt %d/%d", seed, v.Size(), v.Bytes(), fresh.Size(), fresh.Bytes())
		}
		got, want := NewCatalog([]*View{v}, 1, 1), NewCatalog([]*View{fresh}, 1, 1)
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("seed %d: maintained view's fingerprint differs from the rebuilt one", seed)
		}
		// Emptied rows are not part of the encoding either.
		if rt := roundTrip(t, got); rt.Fingerprint() != want.Fingerprint() || len(rt.views[0].count) != fresh.Size() {
			t.Fatalf("seed %d: round trip kept emptied rows or lost state", seed)
		}
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
