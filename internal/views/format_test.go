package views

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"csrank/internal/snapshot"
)

func roundTrip(t testing.TB, c *Catalog) *Catalog {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestVersion1FixturesLoad reads the two durable forms written before
// format 2 — testdata holds a framed version-1 snapshot and a bare gob
// stream of one catalog, both produced by the last commit that wrote
// them — and checks the loaded state against what that commit reported
// for it, then that re-saving writes version 2 with nothing lost.
func TestVersion1FixturesLoad(t *testing.T) {
	const fingerprint, totalBytes = "2bd4d74d89235068", 4586
	for _, name := range []string{"catalog-v1.snap", "catalog-v0.gob"} {
		cat, err := LoadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cat.Fingerprint() != fingerprint || cat.TotalBytes() != totalBytes ||
			cat.ContextThreshold != 7 || cat.ViewSizeLimit != 512 ||
			cat.Len() != 2 || cat.views[0].Size() != 4 || cat.views[1].Size() != 87 {
			t.Fatalf("%s: loaded %s, %d B, T_C %d, T_V %d, views %v", name,
				cat.Fingerprint(), cat.TotalBytes(), cat.ContextThreshold, cat.ViewSizeLimit, cat.views)
		}
		path := filepath.Join(t.TempDir(), "views.gob")
		if err := cat.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := snapshot.NewReader(f)
		f.Close()
		if err != nil || sr.Header().PayloadVersion != CatalogFormatVersion {
			t.Fatalf("%s: re-saved header %+v, err %v; want payload version %d", name, sr.Header(), err, CatalogFormatVersion)
		}
		again, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if again.Fingerprint() != fingerprint || again.TotalBytes() != totalBytes {
			t.Fatalf("%s: version-2 round trip changed the catalog", name)
		}
	}
}

func TestReadSnapshotRejectsUnknownVersion(t *testing.T) {
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf, snapshot.KindViews, CatalogFormatVersion+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewCatalog(nil, 1, 1).Encode(sw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); err == nil {
		t.Fatal("a catalog of a future format version loaded")
	}
}

// TestDecodeRejectsMalformed is TestDecodeV1RejectsMalformed for the
// version-2 payload: every shape rule, one violation each.
func TestDecodeRejectsMalformed(t *testing.T) {
	// Two groups over K = {a, b}: patterns 01 and 11, counts 2 and 1,
	// lengths 9 and 4; the word is in the second only.
	good := func() tableV2 {
		return tableV2{K: []string{"a", "b"}, Tracked: []string{"w"}, Pat: []byte{1, 3}, Count: []int64{2, 1}, Len: []int64{9, 4},
			Cols: []wordCol{{Rows: []uint32{1}, DF: []int64{1}, TC: []int64{3}}}}
	}
	decode := func(tbl tableV2) (*Catalog, error) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&catalogV2{Views: []tableV2{tbl}}); err != nil {
			t.Fatal(err)
		}
		return Decode(&buf)
	}
	cat, err := decode(good())
	if err != nil {
		t.Fatalf("well-formed payload: %v", err)
	}
	if ans, _ := cat.views[0].Answer([]string{"b"}, []string{"w"}, nil); ans.Count != 1 || ans.Len != 4 || ans.DF["w"] != 1 || ans.TC["w"] != 3 {
		t.Fatalf("well-formed payload answered %+v", ans)
	}
	cases := map[string]func(*tableV2){
		"unsorted K":            func(tbl *tableV2) { tbl.K = []string{"b", "a"} },
		"duplicate tracked":     func(tbl *tableV2) { tbl.Tracked = []string{"w", "w"} },
		"pattern bytes short":   func(tbl *tableV2) { tbl.Pat = tbl.Pat[:1] },
		"pattern bytes wide":    func(tbl *tableV2) { tbl.Pat = []byte{1, 0, 3, 0} },
		"bits past |K|":         func(tbl *tableV2) { tbl.Pat[0] = 5 },
		"duplicate pattern":     func(tbl *tableV2) { tbl.Pat[1] = 1 },
		"lengths short":         func(tbl *tableV2) { tbl.Len = tbl.Len[:1] },
		"zero count":            func(tbl *tableV2) { tbl.Count[0] = 0 },
		"negative len":          func(tbl *tableV2) { tbl.Len[1] = -4 },
		"counts sum past int64": func(tbl *tableV2) { tbl.Count = []int64{1 << 62, 1 << 62} },
		"column missing":        func(tbl *tableV2) { tbl.Cols = nil },
		"row past the table":    func(tbl *tableV2) { tbl.Cols[0].Rows[0] = 2 },
		"rows not ascending": func(tbl *tableV2) {
			tbl.Cols[0] = wordCol{Rows: []uint32{1, 1}, DF: []int64{1, 1}, TC: []int64{1, 1}}
		},
		"df column short": func(tbl *tableV2) { tbl.Cols[0].DF = nil },
		"zero df":         func(tbl *tableV2) { tbl.Cols[0].DF[0] = 0 },
		"negative tc":     func(tbl *tableV2) { tbl.Cols[0].TC[0] = -1 },
	}
	for name, breakIt := range cases {
		tbl := good()
		breakIt(&tbl)
		if _, err := decode(tbl); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decoded with error %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzDecodeCatalog feeds arbitrary payloads to both decoders. Either one
// may refuse the input; a catalog either accepts must answer every
// single-term context (and the empty one) without panicking, and survive
// a round trip.
func FuzzDecodeCatalog(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "catalog-v0.gob"))
	if err != nil {
		f.Fatal(err)
	}
	cat, err := decodeV1(bytes.NewReader(v1))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cat.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{v1, buf.Bytes()} {
		for _, cut := range []int{len(seed), len(seed) - 1, len(seed) / 2, len(seed) / 7, 3} {
			f.Add(seed[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range []func() (*Catalog, error){
			func() (*Catalog, error) { return decodeV1(bytes.NewReader(data)) },
			func() (*Catalog, error) { return Decode(bytes.NewReader(data)) },
		} {
			cat, err := decode()
			if err != nil {
				continue
			}
			for _, v := range cat.views {
				words := append(v.TrackedWords(), "no-such-word")
				for _, p := range append([][]string{nil}, singletons(v.K())...) {
					if _, err := v.Answer(p, words, nil); err != nil {
						t.Fatalf("P=%v: %v", p, err)
					}
				}
			}
			if rt := roundTrip(t, cat); rt.Fingerprint() != cat.Fingerprint() {
				t.Fatal("accepted catalog does not survive a round trip")
			}
		}
	})
}

func singletons(k []string) [][]string {
	out := make([][]string, len(k))
	for i := range k {
		out[i] = k[i : i+1]
	}
	return out
}
