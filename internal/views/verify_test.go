package views

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"csrank/internal/analysis"
	"csrank/internal/index"
	"csrank/internal/snapshot"
	"csrank/internal/widetable"
)

// auditIndex builds an index of n random documents over the predicate
// terms m0…m5 and the content words w0…w2.
func auditIndex(t *testing.T, seed int64, n int) (*index.Index, []index.Document) {
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

func TestVerifyCleanCatalog(t *testing.T) {
	ix, _ := auditIndex(t, 41, 300)
	words := []string{"w0", "w1"}
	tbl := widetable.FromIndex(ix, words)
	v1, _ := Materialize(tbl, []string{"m0", "m1", "m2"}, words)
	v2, _ := Materialize(tbl, []string{"m2", "m3"}, words)
	cat := NewCatalog([]*View{v1, v2}, 10, 1000)

	drift, err := cat.Verify(ix, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 0 {
		t.Fatalf("clean catalog reported drift: %v", drift)
	}
	// Sampling also runs clean.
	drift, err = cat.Verify(ix, VerifyOptions{SampleGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 0 {
		t.Fatalf("sampled verify reported drift: %v", drift)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	ix, _ := auditIndex(t, 42, 300)
	words := []string{"w0", "w1"}
	tbl := widetable.FromIndex(ix, words)
	v, _ := Materialize(tbl, []string{"m0", "m1"}, words)
	cat := NewCatalog([]*View{v}, 10, 1000)

	// Poison one group's count and one word entry in the packed columns.
	j := v.wordID["w0"]
	rows, _, tc := v.wordCols(j)
	r := int(rows.at(0))
	v.countCol().put(r, v.countCol().at(r)+3)
	tc.put(0, tc.at(0)-1)
	drift, err := cat.Verify(ix, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) == 0 {
		t.Fatal("corrupted group not reported")
	}
	found := map[string]bool{}
	for _, d := range drift {
		found[d.Field] = true
		if d.String() == "" {
			t.Fatal("empty drift description")
		}
	}
	if !found["count"] {
		t.Fatalf("count drift not among findings: %v", drift)
	}
	// MaxDrift truncates.
	drift, err = cat.Verify(ix, VerifyOptions{MaxDrift: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != 1 {
		t.Fatalf("MaxDrift=1 returned %d findings", len(drift))
	}
}

// TestCatalogFramedPersistence checks that the legacy reader still
// rejects every corruption of a framed catalog file older builds wrote
// (the version-2 fixture): a bit flip or a truncation anywhere fails
// the load.
func TestCatalogFramedPersistence(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "catalog-v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !snapshot.IsFramed(raw) {
		t.Fatal("the version-2 fixture is not a framed snapshot")
	}
	if _, err := decodeLegacy(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off += 11 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x04
		if _, err := decodeLegacy(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at %d loaded cleanly", off)
		}
	}
	for cut := 0; cut < len(raw); cut += 13 {
		if _, err := decodeLegacy(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation to %d loaded cleanly", cut)
		}
	}
}

// TestPagedCatalogCorruptionSweep flips one bit in every byte of a small
// format-v4 file, and cuts it at every length. Each case either fails to
// open or opens with its view quarantined by the first Match that would
// return it — the context then matches no view, and the view refuses to
// answer — and none panics.
func TestPagedCatalogCorruptionSweep(t *testing.T) {
	ix, _ := auditIndex(t, 43, 200)
	words := []string{"w0"}
	v, err := Materialize(widetable.FromIndex(ix, words), []string{"m0", "m1"}, words)
	if err != nil {
		t.Fatal(err)
	}
	k := v.K()
	raw := encodePaged(t, NewCatalog([]*View{v}, 7, 99))
	if c, err := openPaged(raw); err != nil || c.Match(k) == nil || c.Quarantined() != 0 {
		t.Fatalf("intact file: err %v", err)
	}
	quarantined := 0
	check := func(what string, data []byte) {
		c, err := openPaged(data)
		if err != nil {
			return
		}
		quarantined++
		if c.Match(k) != nil || c.Quarantined() != 1 {
			t.Fatalf("%s: opened and served its view (%d quarantined)", what, c.Quarantined())
		}
		if _, err := c.views[0].Answer(k, words, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: quarantined view answered with error %v", what, err)
		}
		if c.Fingerprint() != NewCatalog(nil, 7, 99).Fingerprint() {
			t.Fatalf("%s: fingerprint counts the quarantined view", what)
		}
	}
	for off := range raw {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 1 << (off % 8)
		check(fmt.Sprintf("bit flip at %d", off), mut)
	}
	for cut := range raw {
		check(fmt.Sprintf("truncation to %d", cut), raw[:cut])
	}
	if quarantined == 0 {
		t.Fatal("no flip reached the column section, which opens lazily")
	}
	t.Logf("%d-byte file: %d flips opened and quarantined the view", len(raw), quarantined)
}

// TestDecodeV1RejectsMalformed feeds version-1 catalogs that gob accepts
// but no view could have produced. Each must fail to load with
// ErrCorrupt: the parent commit built a poisoned catalog from the
// negative aggregates' siblings here, and from the short key one that
// indexed out of range on the first query.
func TestDecodeV1RejectsMalformed(t *testing.T) {
	group := func(g persistentGroup) persistentCatalog {
		return persistentCatalog{Views: []persistentView{{K: []string{"a", "b"}, Tracked: []string{"w"}, Groups: []persistentGroup{g}}}}
	}
	cases := map[string]persistentCatalog{
		"negative count": group(persistentGroup{Key: "\x01", Count: -2}),
		"negative len":   group(persistentGroup{Key: "\x01", Count: 1, Len: -5}),
		"negative df":    group(persistentGroup{Key: "\x01", Count: 1, Len: 5, DF: map[string]int64{"w": -1}, TC: map[string]int64{"w": 1}}),
		"negative tc":    group(persistentGroup{Key: "\x01", Count: 1, Len: 5, DF: map[string]int64{"w": 1}, TC: map[string]int64{"w": -1}}),
		"short key":      group(persistentGroup{Key: "", Count: 1}),
		"long key":       group(persistentGroup{Key: "\x01\x00", Count: 1}),
		"bits past |K|":  group(persistentGroup{Key: "\x05", Count: 1}),
		"untracked word": group(persistentGroup{Key: "\x01", Count: 1, DF: map[string]int64{"x": 1}, TC: map[string]int64{"x": 1}}),
		"count overflow": {Views: []persistentView{{K: []string{"a"}, Groups: []persistentGroup{
			{Key: "\x00", Count: math.MaxInt64}, {Key: "\x01", Count: 1}}}}},
		"duplicate key": {Views: []persistentView{{K: []string{"a"}, Groups: []persistentGroup{
			{Key: "\x01", Count: 1}, {Key: "\x01", Count: 1}}}}},
		"duplicate keyword": {Views: []persistentView{{K: []string{"a", "a"}}}},
		"unsorted keywords": {Views: []persistentView{{K: []string{"b", "a"}}}},
	}
	for name, pc := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&pc); err != nil {
			t.Fatal(err)
		}
		if _, err := decodeLegacy(&buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: loaded with error %v, want ErrCorrupt", name, err)
		}
	}
}
