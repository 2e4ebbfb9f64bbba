package views

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"csrank/internal/snapshot"
)

// encodePaged returns c written as catalog format v3.
func encodePaged(t testing.TB, c *Catalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.writePaged(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrip writes c as format v3 and opens the bytes as LoadFile opens
// a file, every view checked.
func roundTrip(t testing.TB, c *Catalog) *Catalog {
	t.Helper()
	got, err := openPaged(encodePaged(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestVersion1FixturesLoad reads the durable forms written before
// format 3 — testdata holds a framed version-2 and a framed version-1
// snapshot and a bare gob stream of one catalog, each produced by the
// last commit that wrote it — and checks the loaded state against what
// that commit reported for it, then that re-saving writes version 3
// with nothing lost.
func TestVersion1FixturesLoad(t *testing.T) {
	const fingerprint, totalBytes = "2bd4d74d89235068", 4586
	for _, name := range []string{"catalog-v2.snap", "catalog-v1.snap", "catalog-v0.gob"} {
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
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := snapshot.OpenPaged(raw)
		if err != nil || pf.Header().PayloadVersion != CatalogFormatVersion {
			t.Fatalf("%s: re-saved file is not paged version %d: %v", name, CatalogFormatVersion, err)
		}
		again, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if again.m == nil || again.Fingerprint() != fingerprint || again.TotalBytes() != totalBytes {
			t.Fatalf("%s: version-3 round trip changed the catalog", name)
		}
		again.Close()
	}
}

func TestReadSnapshotRejectsUnknownVersion(t *testing.T) {
	var buf bytes.Buffer
	pw, err := snapshot.NewPagedWriter(&buf, snapshot.KindViews, CatalogFormatVersion+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := openPaged(buf.Bytes()); err == nil {
		t.Fatal("a catalog of a future format version loaded")
	}
	// A framed file of a payload version the legacy reader does not know.
	v2, err := os.ReadFile(filepath.Join("testdata", "catalog-v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(v2[10:14], CatalogFormatVersion)
	binary.LittleEndian.PutUint32(v2[14:18], crc32.Checksum(v2[:14], castagnoli))
	if _, err := decodeLegacy(bytes.NewReader(v2)); err == nil {
		t.Fatal("a framed catalog of version 3 loaded")
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
		return decodeV2(&buf)
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

// FuzzDecodeCatalog feeds arbitrary files to the format-v3 reader and
// the legacy decoder (framed v2 and v1, raw v1). Either may refuse the
// input; a v3 catalog may also quarantine views at their first use. A
// catalog either accepts must answer every single-term context (and the
// empty one) of its serving views without panicking, and survive a
// round trip.
func FuzzDecodeCatalog(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join("testdata", "catalog-v0.gob"))
	if err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "catalog-v2.snap"))
	if err != nil {
		f.Fatal(err)
	}
	cat, err := decodeV1(bytes.NewReader(v1))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{encodePaged(f, cat), v2, v1} {
		for _, cut := range []int{len(seed), len(seed) - 1, len(seed) / 2, len(seed) / 7, 3} {
			f.Add(seed[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range []func() (*Catalog, error){
			func() (*Catalog, error) { return openPaged(data) },
			func() (*Catalog, error) { return decodeLegacy(bytes.NewReader(data)) },
		} {
			cat, err := decode()
			if err != nil {
				continue
			}
			for _, v := range cat.views {
				words := append(v.TrackedWords(), "no-such-word")
				for _, p := range append([][]string{nil}, singletons(v.K())...) {
					_, err := v.Answer(p, words, nil)
					if err != nil && !errors.Is(err, ErrCorrupt) {
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
