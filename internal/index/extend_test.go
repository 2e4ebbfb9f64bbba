package index

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"csrank/internal/analysis"
)

func extendSchema() Schema {
	a := analysis.Standard()
	return Schema{
		Fields: []FieldSpec{
			{Name: "content", Analyzer: a, Stored: true},
			{Name: "mesh", Analyzer: a},
		},
		PredicateField: "mesh",
		ContentField:   "content",
	}
}

func randomExtendDocs(rng *rand.Rand, n int) []Document {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	mesh := []string{"m1", "m2", "m3", "m4"}
	docs := make([]Document, n)
	for i := range docs {
		var content, preds string
		for w := 0; w < 3+rng.Intn(8); w++ {
			content += words[rng.Intn(len(words))] + " "
		}
		for m := 0; m < 1+rng.Intn(3); m++ {
			preds += mesh[rng.Intn(len(mesh))] + " "
		}
		docs[i] = Document{Fields: map[string]string{"content": content, "mesh": preds}}
	}
	return docs
}

// TestExtendEqualsFreshBuild: an extended index must agree with a fresh
// build over the concatenated corpus on every statistic ranking reads —
// postings, lengths, totals, stored fields and score bounds — for a
// compaction-sized batch (analyzed on the calling goroutine) and one
// above the parallel threshold (analyzed in ranges).
func TestExtendEqualsFreshBuild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{13, 2*minDocsPerWorker + 13} {
		rng := rand.New(rand.NewSource(42))
		old := randomExtendDocs(rng, 40)
		added := randomExtendDocs(rng, n)
		all := append(append([]Document{}, old...), added...)
		schema := extendSchema()

		base, err := BuildFrom(schema, 16, old)
		if err != nil {
			t.Fatal(err)
		}
		baseTerms := map[string]int{
			"content": base.UniqueTerms("content"),
			"mesh":    base.UniqueTerms("mesh"),
		}
		got, err := Extend(base, added)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildFrom(schema, 16, all)
		if err != nil {
			t.Fatal(err)
		}
		assertIndexEqual(t, got, want)

		// base must be untouched by the extension.
		if base.NumDocs() != len(old) {
			t.Fatalf("base grew to %d docs", base.NumDocs())
		}
		for f, n := range baseTerms {
			if base.UniqueTerms(f) != n {
				t.Fatalf("base field %q dictionary changed", f)
			}
		}
	}
}

// TestExtendMappedBase: extending a base opened from its file, through
// a memory mapping, must produce the index a fresh build of every
// document does.
func TestExtendMappedBase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	old := randomExtendDocs(rng, 30)
	added := randomExtendDocs(rng, 9)
	schema := extendSchema()
	base, err := BuildFrom(schema, 16, old)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.gob")
	if err := base.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	got, err := Extend(mapped, added)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]Document{}, old...), added...)
	want, err := BuildFrom(schema, 16, all)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, got, want)
}

func assertIndexEqual(t *testing.T, got, want *Index) {
	t.Helper()
	if got.NumDocs() != want.NumDocs() {
		t.Fatalf("NumDocs %d, want %d", got.NumDocs(), want.NumDocs())
	}
	if got.SegmentSize() != want.SegmentSize() {
		t.Fatalf("SegmentSize %d, want %d", got.SegmentSize(), want.SegmentSize())
	}
	for _, f := range want.Schema().Fields {
		field := f.Name
		if g, w := got.TotalFieldLen(field), want.TotalFieldLen(field); g != w {
			t.Fatalf("field %q TotalFieldLen %d, want %d", field, g, w)
		}
		if g, w := got.UniqueTerms(field), want.UniqueTerms(field); g != w {
			t.Fatalf("field %q UniqueTerms %d, want %d", field, g, w)
		}
		for d := DocID(0); int(d) < want.NumDocs(); d++ {
			if g, w := got.FieldLen(d, field), want.FieldLen(d, field); g != w {
				t.Fatalf("field %q doc %d length %d, want %d", field, d, g, w)
			}
			if f.Stored {
				if g, w := got.StoredField(d, field), want.StoredField(d, field); g != w {
					t.Fatalf("field %q doc %d stored %q, want %q", field, d, g, w)
				}
			}
		}
		for _, term := range want.Terms(field) {
			gl, wl := got.Postings(field, term), want.Postings(field, term)
			if gl == nil {
				t.Fatalf("field %q term %q missing", field, term)
			}
			if got.DF(field, term) != want.DF(field, term) {
				t.Fatalf("field %q term %q DF %d, want %d", field, term, got.DF(field, term), want.DF(field, term))
			}
			if got.TotalTF(field, term) != want.TotalTF(field, term) {
				t.Fatalf("field %q term %q TotalTF %d, want %d", field, term, got.TotalTF(field, term), want.TotalTF(field, term))
			}
			var gps, wps [][2]uint32
			gl.ForEach(func(id, tf uint32) { gps = append(gps, [2]uint32{id, tf}) })
			wl.ForEach(func(id, tf uint32) { wps = append(wps, [2]uint32{id, tf}) })
			if len(gps) != len(wps) {
				t.Fatalf("field %q term %q has %d postings, want %d", field, term, len(gps), len(wps))
			}
			for i := range wps {
				if gps[i] != wps[i] {
					t.Fatalf("field %q term %q posting %d = %v, want %v", field, term, i, gps[i], wps[i])
				}
			}
			if gl.HasBounds() != wl.HasBounds() {
				t.Fatalf("field %q term %q bounds presence %v, want %v", field, term, gl.HasBounds(), wl.HasBounds())
			}
			if gl.HasBounds() {
				if gl.MaxTF() != wl.MaxTF() || gl.MinDocLen() != wl.MinDocLen() {
					t.Fatalf("field %q term %q bounds (%d,%d), want (%d,%d)",
						field, term, gl.MaxTF(), gl.MinDocLen(), wl.MaxTF(), wl.MinDocLen())
				}
				if g, w := chunkBounds(gl), chunkBounds(wl); !slices.Equal(g, w) {
					t.Fatalf("field %q term %q container bounds %+v, want %+v", field, term, g, w)
				}
			}
		}
	}
}
