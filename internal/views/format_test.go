package views

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"csrank/internal/snapshot"
	"csrank/internal/widetable"
)

// encodePaged returns c written as catalog format v4.
func encodePaged(t testing.TB, c *Catalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.writePaged(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrip writes c as format v4 and opens the bytes as LoadFile opens
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

// TestVersion1FixturesLoad reads the gob forms written before format 3
// — testdata holds a framed version-2 and a framed version-1
// snapshot and a bare gob stream of one catalog, each produced by the
// last commit that wrote it — and checks the loaded state against what
// that commit reported for it, then that re-saving writes the current
// paged version with nothing lost.
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
			t.Fatalf("%s: paged round trip changed the catalog", name)
		}
		again.Close()
	}
}

// TestCatalogV3FixtureServes opens testdata/catalog-v3.cspage, which the
// last format-v3 writer wrote from the catalog of the gob fixtures,
// through the one paged reader, and holds it to its re-save as v4: the
// same fingerprint, and the same answer for every single-keyword context
// (and the empty one) over every tracked word.
func TestCatalogV3FixtureServes(t *testing.T) {
	const fingerprint = "2bd4d74d89235068"
	path := filepath.Join("testdata", "catalog-v3.cspage")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if pf, err := snapshot.OpenPaged(raw); err != nil || pf.Header().PayloadVersion != 3 {
		t.Fatalf("the fixture is not a paged version-3 file: %v", err)
	}
	v3, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	if err := v3.Check(); err != nil || v3.Fingerprint() != fingerprint {
		t.Fatalf("fixture loaded with fingerprint %s, check %v", v3.Fingerprint(), err)
	}
	resaved := filepath.Join(t.TempDir(), "views.gob")
	if err := v3.SaveFile(resaved); err != nil {
		t.Fatal(err)
	}
	v4, err := LoadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	defer v4.Close()
	if err := v4.Check(); err != nil || v4.Fingerprint() != fingerprint {
		t.Fatalf("v4 re-save: fingerprint %s, check %v", v4.Fingerprint(), err)
	}
	if pf, err := snapshot.OpenPaged(v4.m.Data); err != nil || pf.Header().PayloadVersion != CatalogFormatVersion {
		t.Fatalf("the re-save is not a paged version-%d file: %v", CatalogFormatVersion, err)
	}
	contexts := [][]string{nil}
	for _, v := range v3.views {
		contexts = append(contexts, singletons(v.K())...)
	}
	answered := 0
	for _, p := range contexts {
		a, b := v3.Match(p), v4.Match(p)
		if (a == nil) != (b == nil) {
			t.Fatalf("P=%v: v3 matched %v, v4 %v", p, a, b)
		}
		if a == nil {
			continue
		}
		words := append(a.TrackedWords(), "no-such-word")
		x, errA := a.Answer(p, words, nil)
		y, errB := b.Answer(p, words, nil)
		if errA != nil || errB != nil {
			t.Fatalf("P=%v: %v, %v", p, errA, errB)
		}
		if x.Count != y.Count || x.Len != y.Len || !maps.Equal(x.DF, y.DF) || !maps.Equal(x.TC, y.TC) {
			t.Fatalf("P=%v: v3 answered %+v, v4 %+v", p, x, y)
		}
		if len(x.DF) > 0 {
			answered++
		}
	}
	if answered == 0 {
		t.Fatal("no context answered a tracked word")
	}
}

// TestHostileCatalogV4Corrupt writes directories and columns no v4
// writer produces: a directory that cannot describe its slab fails the
// open with ErrCorrupt, before any slab checksum is read, and a negative
// value quarantines its view on first use.
func TestHostileCatalogV4Corrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	docs, mesh, words := oracleDocs(rng, 400, 40, 3, 0.3)
	good := func() *View {
		v, err := Materialize(widetable.FromIndex(oracleIndex(t, docs), words), mesh, words)
		if err != nil {
			t.Fatal(err)
		}
		if v.rows <= 256 || v.w.row != 2 {
			t.Fatalf("view has %d rows at row-id width %d; the cases need more than 256 rows", v.rows, v.w.row)
		}
		return v
	}
	open := func(v *View) error {
		_, err := openPaged(encodePaged(t, NewCatalog([]*View{v}, 1, 1)))
		return err
	}
	if c, err := openPaged(encodePaged(t, NewCatalog([]*View{good()}, 1, 1))); err != nil || c.Check() != nil {
		t.Fatalf("well-formed view: %v", err)
	}
	cases := map[string]func(v *View){
		"width 3":                   func(v *View) { v.w.tc = 3 },
		"width 0":                   func(v *View) { v.w.count = 0 },
		"width 16":                  func(v *View) { v.w.df = 16 },
		"row ids too narrow":        func(v *View) { v.w.row = 1 },
		"slab overruns the section": func(v *View) { v.w = widths{8, 8, 8, 8, 8} },
		"entry counts overflow": func(v *View) {
			v.rows = math.MaxUint32
			v.w = widths{8, 8, 8, 8, 8}
			for j := range v.cols {
				v.cols[j].n = math.MaxUint32
			}
		},
		"more entries than rows": func(v *View) { v.cols[0].n = v.rows + 1 },
	}
	for name, breakIt := range cases {
		v := good()
		breakIt(v)
		if err := open(v); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: opened with error %v, want ErrCorrupt", name, err)
		}
	}
	// Width-8 values with the top bit set read as negative, whatever the
	// family, and checkAggregates refuses them.
	negative := map[string]func(tb *table){
		"count": func(tb *table) { tb.count[0] = math.MinInt64 },
		"len":   func(tb *table) { tb.length[1] = -1 },
		"df":    func(tb *table) { tb.cols[0].DF[0] = math.MinInt64 + 5 },
		"tc":    func(tb *table) { tb.cols[0].TC[0] = -7 },
	}
	for name, poison := range negative {
		tb := table{pat: []byte{0, 1}, count: []int64{2, 1}, length: []int64{9, 4}, cols: []entries{{Rows: []uint32{1}, DF: []int64{1}, TC: []int64{3}}}}
		poison(&tb)
		v := newView([]string{"a"}, []string{"w"})
		v.pack(&tb)
		c, err := openPaged(encodePaged(t, NewCatalog([]*View{v}, 1, 1)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := c.views[0].Answer(nil, []string{"w"}, nil); !errors.Is(err, ErrCorrupt) || c.Quarantined() != 1 {
			t.Errorf("negative %s: answered with error %v, %d quarantined", name, err, c.Quarantined())
		}
	}
}

// TestResealedCatalogCorruptionSweep truncates and bit-flips the "dir"
// and "cols" sections of a small v4 file at every byte, and of the v3
// fixture likewise except its 6.5 kB of columns, at every 13th, then
// re-seals each copy — fresh container checksums, and every opened
// view's slab checksum matched to its damaged slab — so the damage
// reaches the directory parser and the first-use validation instead of
// a checksum. Every copy must fail to open, quarantine its views, or
// serve them; none may panic.
func TestResealedCatalogCorruptionSweep(t *testing.T) {
	ix, _ := auditIndex(t, 44, 200)
	words := []string{"w0", "w1"}
	v, err := Materialize(widetable.FromIndex(ix, words), []string{"m0", "m1", "m2"}, words)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "catalog-v3.cspage"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		image    []byte
		colsStep int
	}{{encodePaged(t, NewCatalog([]*View{v}, 7, 99)), 1}, {v3, 13}} {
		pf, err := snapshot.OpenPaged(tc.image)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{sectionDir, sectionCols} {
			sec, _ := pf.Section(name)
			sec = slices.Clone(sec)
			step := 1
			if name == sectionCols {
				step = tc.colsStep
			}
			refused, quarantined := 0, 0
			check := func(damaged []byte) {
				c, err := openPaged(resealCatalog(t, pf, name, damaged))
				if err != nil {
					refused++
					return
				}
				for _, v := range c.views {
					v.file.crc = crc32.Checksum(v.slab, castagnoli)
				}
				serveAll(t, c)
				quarantined += c.Quarantined()
			}
			for cut := 0; cut < len(sec); cut += step {
				check(sec[:cut])
			}
			for off := 0; off < len(sec); off += step {
				bit := byte(1) << (off % 8)
				sec[off] ^= bit
				check(sec)
				sec[off] ^= bit
			}
			if refused == 0 || name == sectionCols && quarantined == 0 {
				t.Fatalf("version %d, %q: %d copies refused, %d views quarantined", pf.Header().PayloadVersion, name, refused, quarantined)
			}
		}
	}
}

// resealCatalog rewrites the paged catalog pf with section name replaced
// by data, under fresh checksums.
func resealCatalog(t *testing.T, pf *snapshot.PagedFile, name string, data []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	pw, err := snapshot.NewPagedWriter(&out, snapshot.KindViews, pf.Header().PayloadVersion, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name  string
		flags uint16
	}{{sectionCols, snapshot.SectionLazyVerify}, {sectionDir, 0}} {
		sec, _ := pf.Section(s.name)
		if s.name == name {
			sec = data
		}
		if err := pw.Begin(s.name, s.flags); err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(sec); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// serveAll answers every single-term context (and the empty one) of
// each of the catalog's views, over its tracked words and one it does
// not track: a view may refuse with ErrCorrupt, and nothing may panic.
// What the catalog serves must survive a round trip.
func serveAll(t *testing.T, cat *Catalog) {
	t.Helper()
	for _, v := range cat.views {
		words := append(v.TrackedWords(), "no-such-word")
		for _, p := range append([][]string{nil}, singletons(v.K())...) {
			if _, err := v.Answer(p, words, nil); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("P=%v: %v", p, err)
			}
		}
	}
	if rt := roundTrip(t, cat); rt.Fingerprint() != cat.Fingerprint() {
		t.Fatal("accepted catalog does not survive a round trip")
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
			Cols: []entries{{Rows: []uint32{1}, DF: []int64{1}, TC: []int64{3}}}}
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
			tbl.Cols[0] = entries{Rows: []uint32{1, 1}, DF: []int64{1, 1}, TC: []int64{1, 1}}
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

// FuzzDecodeCatalog feeds arbitrary files to the paged reader (v4 and
// v3) and the legacy decoder (framed v2 and v1, raw v1). Either may
// refuse the input; a paged catalog may also quarantine views at their
// first use. A catalog either accepts must answer every single-term
// context (and the empty one) of its serving views without panicking,
// and survive a round trip.
func FuzzDecodeCatalog(f *testing.F) {
	var seeds [][]byte
	for _, name := range []string{"catalog-v3.cspage", "catalog-v2.snap", "catalog-v0.gob"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	cat, err := decodeV1(bytes.NewReader(seeds[2]))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range append(seeds, encodePaged(f, cat)) {
		for _, cut := range []int{len(seed), len(seed) - 1, len(seed) / 2, len(seed) / 7, 3} {
			f.Add(seed[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range []func() (*Catalog, error){
			func() (*Catalog, error) { return openPaged(data) },
			func() (*Catalog, error) { return decodeLegacy(bytes.NewReader(data)) },
		} {
			if cat, err := decode(); err == nil {
				serveAll(t, cat)
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
