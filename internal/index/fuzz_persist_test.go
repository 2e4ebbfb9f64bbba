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

// FuzzReadSnapshot feeds arbitrary (seeded with valid framed, valid v2
// raw-gob, and truncated/bit-flipped) bytes to the snapshot loader. The
// contract under fuzzing: never panic, never allocate absurdly — corrupt
// input must come back as an error.
func FuzzReadSnapshot(f *testing.F) {
	ix, err := fuzzSeedIndex()
	if err != nil {
		f.Fatal(err)
	}
	var framed, raw bytes.Buffer
	if err := ix.WriteSnapshot(&framed); err != nil {
		f.Fatal(err)
	}
	if err := ix.Encode(&raw); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add(raw.Bytes())
	f.Add(framed.Bytes()[:framed.Len()/2])
	f.Add(raw.Bytes()[:raw.Len()/2])
	flipped := append([]byte(nil), framed.Bytes()...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add([]byte(snapshot.Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadSnapshot(bytes.NewReader(data))
		if err == nil && got.NumDocs() < 0 {
			t.Fatal("decoded index with negative NumDocs")
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
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
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

// TestSaveFileCrashKeepsPreviousIndex sweeps an injected fault through
// every mutating filesystem operation of SaveFile; after each simulated
// crash the file on disk must still load as a complete index — either
// the old or the new one, never garbage.
func TestSaveFileCrashKeepsPreviousIndex(t *testing.T) {
	old := buildTestIndex(t)
	bigger, err := fuzzSeedIndex()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "index.gob")
	if err := old.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ffs := fsx.NewFaultFS(fsx.OS)
	if err := bigger.SaveFileFS(ffs, path); err != nil {
		t.Fatal(err)
	}
	total := ffs.Ops()
	if err := old.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	for point := 1; point <= total; point++ {
		for _, short := range []bool{false, true} {
			ffs.Arm(point, short)
			werr := bigger.SaveFileFS(ffs, path)
			got, lerr := LoadFile(path)
			if lerr != nil {
				t.Fatalf("point %d short=%v: index unloadable after crash: %v", point, short, lerr)
			}
			if n := got.NumDocs(); n != old.NumDocs() && n != bigger.NumDocs() {
				t.Fatalf("point %d: recovered %d docs, want %d or %d", point, n, old.NumDocs(), bigger.NumDocs())
			}
			if werr == nil && got.NumDocs() != bigger.NumDocs() {
				t.Fatalf("point %d: clean save but old index on disk", point)
			}
			ffs.Reset()
			os.Remove(path + ".tmp")
			if err := old.SaveFile(path); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLoadFileReadsRawGob checks the back-compat read path: a raw gob
// stream on disk (what pre-frame builds wrote — the fixture is written
// with Encode directly, no writer for the format remains) is still
// loadable through LoadFile's sniffing.
func TestLoadFileReadsRawGob(t *testing.T) {
	ix := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "index.gob")
	var raw bytes.Buffer
	if err := ix.Encode(&raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snapshot.IsFramed(b) {
		t.Fatal("raw gob fixture carries the snapshot frame")
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != ix.NumDocs() {
		t.Fatalf("NumDocs = %d, want %d", got.NumDocs(), ix.NumDocs())
	}
}

// TestLoadFileMissingStillErrors guards the error path for a path that
// does not exist when going through the fsx indirection.
func TestLoadFileFSMissing(t *testing.T) {
	if _, err := LoadFileFS(fsx.OS, filepath.Join(t.TempDir(), "nope.gob")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

// encodeGob writes a hand-built persistent struct the way Encode would.
func encodeGob(buf *bytes.Buffer, p *persistent) error {
	return gob.NewEncoder(buf).Encode(p)
}
