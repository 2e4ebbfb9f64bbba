package index

import (
	"bytes"
	"encoding/gob"
	"errors"
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
// with a paged v4 image (ReadSnapshot routes it to OpenMappedBytes), a
// framed and a raw v3 gob stream, and truncated and bit-flipped copies.
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
			p := persistent{
				Version: FormatVersion,
				Schema:  ix.schema,
				SegSize: ix.segSize,
				NumDocs: ix.numDocs,
				Lengths: map[string][]int32{},
				Stored:  map[string][]string{},
				Fields:  map[string]persistentField{},
			}
			for f, ls := range ix.lengths {
				p.Lengths[f] = ls
			}
			for f, vs := range ix.stored {
				p.Stored[f] = vs
			}
			for name, fi := range ix.fields {
				p.Fields[name] = persistentField{TotalLen: fi.totalLen, Terms: map[string][]byte{}}
			}
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
