package index

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"csrank/internal/fsx"
	"csrank/internal/snapshot"
)

// fuzzSeedIndex builds a small index without a *testing.T so fuzz seed
// setup can share it.
func fuzzSeedIndex() (*Index, error) {
	docs := []Document{
		doc("alpha", "pancreas leukemia pancreas", "digestive_system humans"),
		doc("beta", "leukemia therapy", "neoplasms humans"),
		doc("gamma", "pancreas surgery therapy therapy", "digestive_system"),
		doc("delta", "archive", ""),
	}
	return BuildFrom(testSchema(), 0, docs)
}

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot loader, seeded
// with a paged v5 image (ReadSnapshot routes it to OpenMappedBytes), a
// framed and a raw v3 gob stream, the paged v4 fixture, and truncated
// and bit-flipped copies of each.
// The contract under fuzzing: never panic, never allocate absurdly —
// corrupt input must come back as an error, and an index that does open
// survives Verify and a walk over every posting list (a corrupt mapped
// block is quarantined, not fatal).
func FuzzReadSnapshot(f *testing.F) {
	ix, err := fuzzSeedIndex()
	if err != nil {
		f.Fatal(err)
	}
	var paged bytes.Buffer
	if err := ix.WritePaged(&paged, 64); err != nil {
		f.Fatal(err)
	}
	framed, raw := encodeV3Framed(f, ix), encodeV3(f, ix)
	for _, seed := range [][]byte{paged.Bytes(), framed, raw} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte(snapshot.Magic))
	f.Add([]byte(snapshot.PagedMagic))
	v4, err := os.ReadFile(filepath.Join("testdata", "v4-corpus.idx"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v4)
	f.Add(v4[:len(v4)/2])
	flipped := append([]byte(nil), v4...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.NumDocs() < 0 {
			t.Fatal("decoded index with negative NumDocs")
		}
		// A lazily verified section may be corrupt: Verify must report
		// it, not panic, and the walk must quarantine its blocks.
		_ = got.Verify()
		for _, fd := range got.Schema().Fields {
			for _, term := range got.Terms(fd.Name) {
				got.Postings(fd.Name, term).ForEach(func(d, tf uint32) {})
			}
		}
	})
}

// TestReadSnapshotRejectsHostileValues feeds streams with out-of-range
// counters; each must produce a descriptive error, not a panic or a
// bogus index.
func TestReadSnapshotRejectsHostileValues(t *testing.T) {
	ix := buildTestIndex(t)
	mutations := []struct {
		name string
		mut  func(p *persistent)
	}{
		{"negative NumDocs", func(p *persistent) { p.NumDocs = -1 }},
		{"absurd NumDocs", func(p *persistent) { p.NumDocs = maxDocs + 1 }},
		{"negative SegSize", func(p *persistent) { p.SegSize = -5 }},
		{"absurd SegSize", func(p *persistent) { p.SegSize = maxSegSize + 1 }},
		{"negative TotalLen", func(p *persistent) {
			pf := p.Fields["content"]
			pf.TotalLen = -3
			p.Fields["content"] = pf
		}},
		{"lengths mismatch", func(p *persistent) {
			p.Lengths["content"] = p.Lengths["content"][:1]
		}},
		{"lengths missing", func(p *persistent) { delete(p.Lengths, "content") }},
		{"negative length entry", func(p *persistent) {
			ls := append([]int32(nil), p.Lengths["content"]...)
			ls[0] = -9
			p.Lengths["content"] = ls
		}},
		{"stored mismatch", func(p *persistent) {
			p.Stored["title"] = append(p.Stored["title"], "extra")
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			p := persistentOf(ix, FormatVersion, nil)
			m.mut(&p)
			var buf bytes.Buffer
			if err := encodeGob(&buf, &p); err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(&buf); err == nil {
				t.Fatalf("%s: decoded cleanly", m.name)
			}
		})
	}
}

// resealed returns the paged index image of pf's sections, each
// replaced by replace[name] where present, under fresh checksums: a
// damaged copy only the reader's own validation can catch.
func resealed(t *testing.T, pf *snapshot.PagedFile, replace map[string][]byte) []byte {
	t.Helper()
	var out bytes.Buffer
	pw, err := snapshot.NewPagedWriter(&out, snapshot.KindIndex, pf.Header().PayloadVersion, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"postings", "dir", "terms", "lengths", "stored", "toc"} {
		data, ok := replace[name]
		if !ok {
			if data, ok = pf.Section(name); !ok {
				continue
			}
		}
		if err := pw.Begin(name, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// openAndWalk opens img and, if it opens, reads every dictionary entry
// and posting list; corrupt input must fail the open with an error or
// serve what it holds, never panic.
func openAndWalk(img []byte) error {
	ix, err := OpenMappedBytes(img, 0)
	if err != nil {
		return err
	}
	for _, fd := range ix.Schema().Fields {
		ix.TermsWithMinDF(fd.Name, 2)
		for _, term := range ix.Terms(fd.Name) {
			ix.DF(fd.Name, term)
			ix.TotalTF(fd.Name, term)
			ix.Postings(fd.Name, term).ForEach(func(d, tf uint32) {})
		}
		ix.ContainerStats(fd.Name)
	}
	return nil
}

// TestDictionarySectionsCorruptionSweep truncates and bit-flips the
// dictionary of a v5 image (its "terms" section and the toc that
// locates it) and of the v4 fixture (its toc): raw, the section
// checksum must refuse every damaged copy; re-sealed under fresh
// checksums, every copy must open with an error or serve a walk over
// its whole dictionary, never panic.
func TestDictionarySectionsCorruptionSweep(t *testing.T) {
	ix, err := fuzzSeedIndex()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WritePaged(&buf, 64); err != nil {
		t.Fatal(err)
	}
	v4, err := os.ReadFile(filepath.Join("testdata", "v4-corpus.idx"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		image   []byte
		section string
		step    int
	}{
		{buf.Bytes(), "terms", 1},
		{buf.Bytes(), "toc", 1},
		{v4, "toc", 397},
	} {
		img := append([]byte(nil), tc.image...)
		pf, err := snapshot.OpenPaged(img)
		if err != nil {
			t.Fatal(err)
		}
		sec, ok := pf.Section(tc.section) // aliases img
		if !ok || len(sec) == 0 {
			t.Fatalf("image lacks section %q", tc.section)
		}
		rejected := 0
		for cut := 0; cut < len(sec); cut += tc.step {
			if openAndWalk(resealed(t, pf, map[string][]byte{tc.section: sec[:cut]})) != nil {
				rejected++
			}
		}
		for off := 0; off < len(sec); off += tc.step {
			bit := byte(1) << uint(off%8)
			sec[off] ^= bit
			if _, err := OpenMappedBytes(img, 0); err == nil {
				t.Fatalf("%s: bit flip at byte %d opened under the old checksum", tc.section, off)
			}
			if openAndWalk(resealed(t, pf, nil)) != nil {
				rejected++
			}
			sec[off] ^= bit
		}
		if rejected == 0 {
			t.Fatalf("%s: no damaged copy was rejected", tc.section)
		}
		if err := openAndWalk(resealed(t, pf, nil)); err != nil {
			t.Fatalf("%s: restored image: %v", tc.section, err)
		}
	}
}

// TestMappedRejectsHostileSlabOffsets: a table of contents whose slab
// offsets point past any section — near the top of int64, where an
// unchecked sum wraps negative — fails the open with an error, never a
// slice panic.
func TestMappedRejectsHostileSlabOffsets(t *testing.T) {
	ix, err := fuzzSeedIndex()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WritePaged(&buf, 64); err != nil {
		t.Fatal(err)
	}
	pf, err := snapshot.OpenPaged(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tocSec, _ := pf.Section("toc")
	const huge = math.MaxInt64 - 3
	for name, damage := range map[string]func(*mappedTOC){
		"lengths":      func(toc *mappedTOC) { toc.Lengths["content"] = huge },
		"stored offs":  func(toc *mappedTOC) { s := toc.Stored["title"]; s.OffsOff = huge; toc.Stored["title"] = s },
		"stored blob":  func(toc *mappedTOC) { s := toc.Stored["title"]; s.BlobLen = huge; toc.Stored["title"] = s },
		"dict offsets": func(toc *mappedTOC) { f := toc.Fields["content"]; f.Dict.OffsOff = huge; toc.Fields["content"] = f },
		"dict records": func(toc *mappedTOC) { f := toc.Fields["content"]; f.Dict.RecsOff = huge; toc.Fields["content"] = f },
		"dict blob":    func(toc *mappedTOC) { f := toc.Fields["content"]; f.Dict.BlobLen = huge; toc.Fields["content"] = f },
		"dict terms":   func(toc *mappedTOC) { f := toc.Fields["content"]; f.Dict.NumTerms = huge; toc.Fields["content"] = f },
	} {
		var toc mappedTOC
		if err := gob.NewDecoder(bytes.NewReader(tocSec)).Decode(&toc); err != nil {
			t.Fatal(err)
		}
		damage(&toc)
		var forged bytes.Buffer
		if err := gob.NewEncoder(&forged).Encode(&toc); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMappedBytes(resealed(t, pf, map[string][]byte{"toc": forged.Bytes()}), 0); err == nil {
			t.Fatalf("%s: a slab past its section opened", name)
		}
	}
}

// TestFramedSnapshotDetectsCorruption truncates and bit-flips a framed
// index file at sampled offsets; every mutation must fail the load with
// an error (never a panic, never a silently wrong index).
func TestFramedSnapshotDetectsCorruption(t *testing.T) {
	full := encodeV3Framed(t, buildTestIndex(t))
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes loaded cleanly", cut)
		}
	}
	for off := 0; off < len(full); off += 5 {
		mut := append([]byte(nil), full...)
		mut[off] ^= 1 << uint(off%8)
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d loaded cleanly", off)
		}
	}
}

// TestSaveMappedCrashKeepsPreviousIndex sweeps an injected fault
// through every mutating filesystem operation of SaveMappedFS, the one
// index writer; after each simulated crash the file on disk must still
// load as a complete index — either the old or the new one, never
// garbage.
func TestSaveMappedCrashKeepsPreviousIndex(t *testing.T) {
	old := buildTestIndex(t)
	bigger, err := fuzzSeedIndex()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.gob")
	if err := old.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	ffs := fsx.NewFaultFS(fsx.OS)
	if err := bigger.SaveMappedFS(ffs, path); err != nil {
		t.Fatal(err)
	}
	total := ffs.Ops()
	if err := old.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	for point := 1; point <= total; point++ {
		for _, short := range []bool{false, true} {
			ffs.Arm(point, short)
			werr := bigger.SaveMappedFS(ffs, path)
			got, lerr := LoadFileFS(fsx.OS, path)
			if lerr != nil {
				t.Fatalf("point %d short=%v: index unloadable after crash: %v", point, short, lerr)
			}
			if err := got.Verify(); err != nil {
				t.Fatalf("point %d short=%v: recovered index fails Verify: %v", point, short, err)
			}
			if n := got.NumDocs(); n != old.NumDocs() && n != bigger.NumDocs() {
				t.Fatalf("point %d: recovered %d docs, want %d or %d", point, n, old.NumDocs(), bigger.NumDocs())
			}
			if werr == nil && got.NumDocs() != bigger.NumDocs() {
				t.Fatalf("point %d: clean save but old index on disk", point)
			}
			got.Close()
			ffs.Reset()
			os.Remove(path + ".tmp")
			if err := old.SaveMapped(path); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLoadFileReadsRawGob checks the back-compat read path: a raw gob
// stream on disk (what pre-frame builds wrote; the fixture comes from
// the last build that wrote gob) is still loadable through LoadFile's
// sniffing.
func TestLoadFileReadsRawGob(t *testing.T) {
	path := filepath.Join("testdata", "v3-raw.gob")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snapshot.IsFramed(b) || snapshot.IsPaged(b) {
		t.Fatal("raw gob fixture carries a snapshot frame")
	}
	got, err := LoadFileFS(fsx.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fuzzSeedIndex()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != want.NumDocs() {
		t.Fatalf("NumDocs = %d, want %d", got.NumDocs(), want.NumDocs())
	}
}

// TestLoadFileMissingStillErrors guards the error path for a path that
// does not exist when going through the fsx indirection.
func TestLoadFileFSMissing(t *testing.T) {
	if _, err := LoadFileFS(fsx.OS, filepath.Join(t.TempDir(), "nope.gob")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

// encodeGob writes a hand-built persistent struct as a raw gob stream.
func encodeGob(buf *bytes.Buffer, p *persistent) error {
	return gob.NewEncoder(buf).Encode(p)
}
