package views

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"csrank/internal/analysis"
	"csrank/internal/index"
	"csrank/internal/widetable"
)

// Remove folds one deleted document out of the view. The caller must
// pass the same DocUpdate the document was applied with (distributive
// views cannot reconstruct per-document contributions, so the caller
// must keep every update it applied). A mismatched
// removal — an unknown group, or any aggregate that would underflow —
// returns an error and leaves the group untouched, instead of silently
// corrupting the statistics every later query would rank with. A group
// whose count reaches zero stops being one, keeping ViewSize equal to the
// number of non-empty tuples.
func (v *View) Remove(u DocUpdate) error {
	r, err := v.checkRemove(u)
	if err != nil {
		return err
	}
	v.removeUnchecked(r, u)
	return nil
}

// updatesFor extracts per-document DocUpdates from an index, the shape an
// ingestion pipeline would produce.
func updatesFor(ix *index.Index, words []string) []DocUpdate {
	schema := ix.Schema()
	out := make([]DocUpdate, ix.NumDocs())
	for d := 0; d < ix.NumDocs(); d++ {
		out[d] = DocUpdate{
			Len: ix.FieldLen(uint32(d), schema.ContentField),
			TF:  map[string]int64{},
		}
	}
	for _, m := range ix.Terms(schema.PredicateField) {
		ix.Postings(schema.PredicateField, m).ForEach(func(d, _ uint32) {
			out[d].Predicates = append(out[d].Predicates, m)
		})
	}
	for _, w := range words {
		l := ix.Postings(schema.ContentField, w)
		if l == nil {
			continue
		}
		l.ForEach(func(d, tf uint32) { out[d].TF[w] = int64(tf) })
	}
	return out
}

// buildMaintIndex builds two indexes: one over docs[:cut] and one over
// all docs, so incremental application can be compared against
// re-materialization.
func buildMaintIndex(t *testing.T, seed int64, n int) (*index.Index, []index.Document) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	meshTerms := []string{"m0", "m1", "m2", "m3", "m4", "m5"}
	words := []string{"w0", "w1", "w2"}
	docs := make([]index.Document, n)
	for i := range docs {
		var mesh, content string
		for _, m := range meshTerms {
			if rng.Float64() < 0.35 {
				mesh += m + " "
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
		docs[i] = index.Document{Fields: map[string]string{"content": content, "mesh": mesh}}
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
	return ix, docs
}

func viewsEqual(t *testing.T, a, b *View, words []string, probes [][]string) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for _, p := range probes {
		x, err := a.Answer(p, words, nil)
		if err != nil {
			t.Fatal(err)
		}
		y, err := b.Answer(p, words, nil)
		if err != nil {
			t.Fatal(err)
		}
		if x.Count != y.Count || x.Len != y.Len {
			t.Fatalf("answers differ for %v: {%d,%d} vs {%d,%d}", p, x.Count, x.Len, y.Count, y.Len)
		}
		for _, w := range words {
			if x.DF[w] != y.DF[w] || x.TC[w] != y.TC[w] {
				t.Fatalf("df/tc(%s) differ for %v", w, p)
			}
		}
	}
}

func TestApplyMatchesRematerialization(t *testing.T) {
	words := []string{"w0", "w1", "w2"}
	k := []string{"m0", "m2", "m4"}
	probes := [][]string{nil, {"m0"}, {"m2", "m4"}, {"m0", "m2", "m4"}}

	fullIx, docs := buildMaintIndex(t, 3, 400)
	fullTbl := widetable.FromIndex(fullIx, words)
	want, err := Materialize(fullTbl, k, words)
	if err != nil {
		t.Fatal(err)
	}

	// Materialize over the first half, then apply the second half
	// incrementally.
	cut := 200
	schema := fullIx.Schema()
	halfIx, err := index.BuildFrom(schema, 0, docs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	halfTbl := widetable.FromIndex(halfIx, words)
	got, err := Materialize(halfTbl, k, words)
	if err != nil {
		t.Fatal(err)
	}
	updates := updatesFor(fullIx, words)
	for _, u := range updates[cut:] {
		got.Apply(u)
	}
	viewsEqual(t, got, want, words, probes)
}

func TestRemoveUndoesApply(t *testing.T) {
	words := []string{"w0", "w1", "w2"}
	k := []string{"m1", "m3"}
	ix, _ := buildMaintIndex(t, 9, 300)
	tbl := widetable.FromIndex(ix, words)
	v, err := Materialize(tbl, k, words)
	if err != nil {
		t.Fatal(err)
	}
	baselineSize := v.Size()
	baseline, err := v.Answer([]string{"m1"}, words, nil)
	if err != nil {
		t.Fatal(err)
	}

	u := DocUpdate{
		Predicates: []string{"m1", "m5"},
		Len:        42,
		TF:         map[string]int64{"w0": 3, "w9": 7}, // w9 untracked: ignored
	}
	v.Apply(u)
	after, err := v.Answer([]string{"m1"}, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != baseline.Count+1 || after.Len != baseline.Len+42 {
		t.Fatalf("apply not reflected: %+v vs %+v", after, baseline)
	}
	if after.DF["w0"] != baseline.DF["w0"]+1 || after.TC["w0"] != baseline.TC["w0"]+3 {
		t.Fatal("tracked word df/tc not updated")
	}

	v.Remove(u)
	restored, err := v.Answer([]string{"m1"}, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Count != baseline.Count || restored.Len != baseline.Len ||
		restored.DF["w0"] != baseline.DF["w0"] || restored.TC["w0"] != baseline.TC["w0"] {
		t.Fatalf("remove did not restore: %+v vs %+v", restored, baseline)
	}
	if v.Size() != baselineSize {
		t.Fatalf("size %d after undo, want %d", v.Size(), baselineSize)
	}
}

func TestApplyCreatesAndRemoveDropsGroups(t *testing.T) {
	tbl, meshTerms, _ := randomTable(t, 21, 50, 6, 2)
	v, err := Materialize(tbl, meshTerms[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	// A document with a predicate pattern over K that (likely) already
	// exists plus one with an impossible marker: use a fresh pattern by
	// applying then removing and asserting size restoration.
	before := v.Size()
	u := DocUpdate{Predicates: []string{meshTerms[0], meshTerms[1]}, Len: 10}
	v.Apply(u)
	v.Apply(u)
	if err := v.Remove(u); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove(u); err != nil {
		t.Fatal(err)
	}
	if v.Size() != before {
		t.Fatalf("size %d, want %d", v.Size(), before)
	}
}

// TestRemoveUnknownGroupErrors checks that removing a document whose
// pattern maps to a group that was never populated is rejected and
// leaves the view untouched.
func TestRemoveUnknownGroupErrors(t *testing.T) {
	tbl, meshTerms, _ := randomTable(t, 31, 40, 6, 2)
	v, err := Materialize(tbl, meshTerms[:3], nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find a predicate combination whose group is empty.
	var ghost []string
	combos := [][]string{
		{meshTerms[0]}, {meshTerms[1]}, {meshTerms[2]},
		{meshTerms[0], meshTerms[1]}, {meshTerms[0], meshTerms[2]},
		{meshTerms[1], meshTerms[2]}, {meshTerms[0], meshTerms[1], meshTerms[2]},
		nil,
	}
	populated := func(c []string) bool {
		_, ok := v.find(v.patternOf(c))
		return ok
	}
	for _, c := range combos {
		if !populated(c) {
			ghost = c
			break
		}
	}
	if ghost == nil && populated(nil) {
		t.Skip("every pattern over K is populated in this corpus")
	}
	before := v.Size()
	if err := v.Remove(DocUpdate{Predicates: ghost, Len: 5}); err == nil {
		t.Fatal("remove from unknown group succeeded")
	}
	if v.Size() != before {
		t.Fatal("failed remove still changed the view")
	}
}

// TestRemoveUnderflowErrors checks every underflow class: Len, DF, TC,
// and last-document residue. Each must error and leave the group's
// aggregates exactly as they were.
func TestRemoveUnderflowErrors(t *testing.T) {
	k := []string{"m0", "m1"}
	words := []string{"w0"}
	fresh := func() *View {
		v := newView(k, words)
		v.Apply(DocUpdate{Predicates: []string{"m0"}, Len: 10, TF: map[string]int64{"w0": 2}})
		v.Apply(DocUpdate{Predicates: []string{"m0"}, Len: 4})
		return v
	}
	snapshotAnswer := func(v *View) ContextStats {
		cs, err := v.Answer([]string{"m0"}, words, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	cases := []struct {
		name string
		u    DocUpdate
	}{
		{"len underflow", DocUpdate{Predicates: []string{"m0"}, Len: 100}},
		{"df underflow", DocUpdate{Predicates: []string{"m0"}, Len: 4, TF: map[string]int64{"w0": 1}}},
		{"tc underflow", DocUpdate{Predicates: []string{"m0"}, Len: 10, TF: map[string]int64{"w0": 99}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := fresh()
			if tc.name == "df underflow" {
				// Drain the only w0 document first so DF is 0... which
				// deletes the column; removing a w0-carrying doc then
				// hits the df(w0) < 1 branch.
				if err := v.Remove(DocUpdate{Predicates: []string{"m0"}, Len: 10, TF: map[string]int64{"w0": 2}}); err != nil {
					t.Fatal(err)
				}
			}
			before := snapshotAnswer(v)
			if err := v.Remove(tc.u); err == nil {
				t.Fatal("mismatched remove succeeded")
			}
			after := snapshotAnswer(v)
			if after.Count != before.Count || after.Len != before.Len ||
				after.DF["w0"] != before.DF["w0"] || after.TC["w0"] != before.TC["w0"] {
				t.Fatalf("failed remove mutated the group: %+v -> %+v", before, after)
			}
		})
	}
	// Last-document residue: removing the final document must cancel the
	// group exactly.
	v := newView(k, words)
	v.Apply(DocUpdate{Predicates: []string{"m1"}, Len: 7, TF: map[string]int64{"w0": 3}})
	if err := v.Remove(DocUpdate{Predicates: []string{"m1"}, Len: 5, TF: map[string]int64{"w0": 3}}); err == nil {
		t.Fatal("last-document removal with residual len succeeded")
	}
	if err := v.Remove(DocUpdate{Predicates: []string{"m1"}, Len: 7, TF: map[string]int64{"w0": 1}}); err == nil {
		t.Fatal("last-document removal with residual tc succeeded")
	}
	if err := v.Remove(DocUpdate{Predicates: []string{"m1"}, Len: 7, TF: map[string]int64{"w0": 3}}); err != nil {
		t.Fatal(err)
	}
	if v.Size() != 0 {
		t.Fatalf("size %d after removing the only document", v.Size())
	}
}

func TestCatalogApplyRemove(t *testing.T) {
	tbl, meshTerms, words := randomTable(t, 22, 200, 8, 3)
	v1, _ := Materialize(tbl, meshTerms[:4], words)
	v2, _ := Materialize(tbl, meshTerms[2:6], words)
	cat := NewCatalog([]*View{v1, v2}, 10, 100)
	p := []string{meshTerms[2], meshTerms[3]}
	before, err := cat.Match(p).Answer(p, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	u := DocUpdate{Predicates: p, Len: 7, TF: map[string]int64{words[0]: 2}}
	cat.Apply(u)
	mid, err := cat.Match(p).Answer(p, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Count != before.Count+1 {
		t.Fatalf("catalog apply missed: %d vs %d", mid.Count, before.Count)
	}
	cat.Remove(u)
	after, err := cat.Match(p).Answer(p, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.Count != before.Count || after.Len != before.Len {
		t.Fatal("catalog remove did not restore")
	}
}

// TestMappedCatalogCopiesBeforeWrite: Apply and Remove on a catalog
// opened from a format-v3 file write heap copies of its views' columns
// — the read-only mapping would fault — and match the same updates on
// the heap catalog the file was written from, while the file keeps its
// bytes.
func TestMappedCatalogCopiesBeforeWrite(t *testing.T) {
	tbl, meshTerms, words := randomTable(t, 22, 200, 8, 3)
	v1, _ := Materialize(tbl, meshTerms[:4], words)
	v2, _ := Materialize(tbl, meshTerms[2:6], words)
	heap := NewCatalog([]*View{v1, v2}, 10, 100)
	path := filepath.Join(t.TempDir(), "views.gob")
	if err := heap.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	updates := []DocUpdate{
		{Predicates: meshTerms[2:4], Len: 7, TF: map[string]int64{words[0]: 2}},
		{Predicates: []string{meshTerms[5], "no-such-term"}, Len: 3, TF: map[string]int64{words[1]: 1}},
	}
	for _, u := range updates {
		heap.Apply(u)
		mapped.Apply(u)
	}
	if err := heap.Remove(updates[0]); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Remove(updates[0]); err != nil {
		t.Fatal(err)
	}
	if mapped.Fingerprint() != heap.Fingerprint() {
		t.Fatal("the mapped catalog drifted from the heap one under the same updates")
	}
	for _, v := range mapped.views {
		if v.file.slab != nil {
			t.Fatal("a written view still aliases the file")
		}
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, raw) {
		t.Fatalf("the catalog file changed under Apply and Remove (err %v)", err)
	}
}

// Property: applying a random update sequence and removing it in any
// order restores every aggregate.
func TestApplyRemoveInverseProperty(t *testing.T) {
	tbl, meshTerms, words := randomTable(t, 23, 100, 6, 2)
	v, err := Materialize(tbl, meshTerms[:3], words)
	if err != nil {
		t.Fatal(err)
	}
	base, err := v.Answer(nil, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 1
		ups := make([]DocUpdate, n)
		for i := range ups {
			u := DocUpdate{Len: int64(rng.Intn(100)), TF: map[string]int64{}}
			for _, m := range meshTerms[:4] {
				if rng.Float64() < 0.5 {
					u.Predicates = append(u.Predicates, m)
				}
			}
			for _, w := range words {
				u.TF[w] = int64(rng.Intn(3))
			}
			ups[i] = u
		}
		for _, u := range ups {
			v.Apply(u)
		}
		rng.Shuffle(n, func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
		for _, u := range ups {
			v.Remove(u)
		}
		got, err := v.Answer(nil, words, nil)
		if err != nil {
			return false
		}
		if got.Count != base.Count || got.Len != base.Len {
			return false
		}
		for _, w := range words {
			if got.DF[w] != base.DF[w] || got.TC[w] != base.TC[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
