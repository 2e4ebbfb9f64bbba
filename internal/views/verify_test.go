package views

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"csrank/internal/snapshot"
	"csrank/internal/widetable"
)

func TestVerifyCleanCatalog(t *testing.T) {
	ix, _ := buildMaintIndex(t, 41, 300)
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
	ix, _ := buildMaintIndex(t, 42, 300)
	words := []string{"w0", "w1"}
	tbl := widetable.FromIndex(ix, words)
	v, _ := Materialize(tbl, []string{"m0", "m1"}, words)
	cat := NewCatalog([]*View{v}, 10, 1000)

	// Poison one group the way a mismatched un-logged update would.
	r := v.cols[v.wordID["w0"]].Rows[0]
	v.count[r] += 3
	v.cols[v.wordID["w0"]].TC[0] -= 1
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

// TestCatalogFramedPersistence round-trips a catalog through the framed
// snapshot format and checks corruption detection (files written before
// format 2 are covered by TestVersion1FixturesLoad).
func TestCatalogFramedPersistence(t *testing.T) {
	ix, _ := buildMaintIndex(t, 43, 200)
	words := []string{"w0"}
	tbl := widetable.FromIndex(ix, words)
	v, _ := Materialize(tbl, []string{"m0", "m1"}, words)
	cat := NewCatalog([]*View{v}, 7, 99)

	dir := t.TempDir()
	path := filepath.Join(dir, "views.gob")
	if err := cat.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshot.IsFramed(raw) {
		t.Fatal("SaveFile did not write a framed snapshot")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != cat.Len() || got.ContextThreshold != 7 || got.ViewSizeLimit != 99 {
		t.Fatalf("round trip lost catalog metadata: %+v", got)
	}

	// Bit flips and truncation are detected.
	for off := 0; off < len(raw); off += 11 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x04
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at %d loaded cleanly", off)
		}
	}
	for cut := 0; cut < len(raw); cut += 13 {
		if _, err := ReadSnapshot(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation to %d loaded cleanly", cut)
		}
	}
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
		if _, err := ReadSnapshot(&buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: loaded with error %v, want ErrCorrupt", name, err)
		}
	}
}
