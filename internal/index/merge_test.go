package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"csrank/internal/fsx"
	"csrank/internal/postings"
	"csrank/internal/snapshot"
)

// mergeDocs returns n documents over extendSchema whose lists take
// every block shape: "alpha", "beta" and "m1" are dense in every chunk
// range, "gamma" and "delta" sparse with small gaps (packed), the rare
// words sparse with wide ones (raw), and repeated tokens give TF > 1 to
// some blocks and not to others.
func mergeDocs(rng *rand.Rand, n int) []Document {
	docs := make([]Document, n)
	for i := range docs {
		var content []string
		for k := 1 + rng.Intn(4); k > 0; k-- {
			switch p := rng.Float64(); {
			case p < 0.3:
				content = append(content, "alpha")
			case p < 0.5:
				content = append(content, "beta")
			case p < 0.53:
				content = append(content, "gamma")
			case p < 0.54:
				content = append(content, "delta")
			default:
				content = append(content, fmt.Sprintf("r%03d", rng.Intn(300)))
			}
		}
		mesh := "m1"
		if rng.Intn(5) == 0 {
			mesh = fmt.Sprintf("m%d", 2+rng.Intn(3))
		}
		docs[i] = Document{Fields: map[string]string{"content": strings.Join(content, " "), "mesh": mesh}}
	}
	return docs
}

// v5Sections opens a v5 image and returns its six sections by name.
func v5Sections(t testing.TB, img []byte) map[string][]byte {
	t.Helper()
	pf, err := snapshot.OpenPaged(img)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, name := range []string{"toc", "dir", "terms", "lengths", "stored", "postings"} {
		sec, ok := pf.Section(name)
		if !ok {
			t.Fatalf("image lacks section %q", name)
		}
		out[name] = sec
	}
	return out
}

// assertSameImage checks that two v5 images hold equal sections: every
// section byte for byte — the dictionaries included — except the toc,
// compared decoded (its gob maps encode in varying order).
func assertSameImage(t testing.TB, got, want []byte) {
	t.Helper()
	gs, ws := v5Sections(t, got), v5Sections(t, want)
	for _, name := range []string{"postings", "dir", "terms", "lengths", "stored"} {
		if !bytes.Equal(gs[name], ws[name]) {
			t.Fatalf("section %q differs: %d bytes, want %d", name, len(gs[name]), len(ws[name]))
		}
	}
	var gt, wt mappedTOC
	for _, d := range []struct {
		sec []byte
		toc *mappedTOC
	}{{gs["toc"], &gt}, {ws["toc"], &wt}} {
		if err := gob.NewDecoder(bytes.NewReader(d.sec)).Decode(d.toc); err != nil {
			t.Fatal(err)
		}
	}
	if gt.NumDocs != wt.NumDocs || gt.SegSize != wt.SegSize {
		t.Fatalf("toc shape %d docs / segsize %d, want %d / %d", gt.NumDocs, gt.SegSize, wt.NumDocs, wt.SegSize)
	}
	if !reflect.DeepEqual(gt.Fields, wt.Fields) || !reflect.DeepEqual(gt.Lengths, wt.Lengths) || !reflect.DeepEqual(gt.Stored, wt.Stored) {
		t.Fatal("toc field totals or slabs differ")
	}
	if len(gt.Schema.Fields) != len(wt.Schema.Fields) {
		t.Fatal("toc schemas differ")
	}
	for i, f := range wt.Schema.Fields {
		if g := gt.Schema.Fields[i]; g.Name != f.Name || g.Stored != f.Stored {
			t.Fatalf("toc schema field %d is %q/%v, want %q/%v", i, g.Name, g.Stored, f.Name, f.Stored)
		}
	}
}

func pagedImage(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WritePaged(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeWriterEqualsFreshBuild is the merge writer's property: for
// random add batches, segment sizes, heap and mapped bases, and chains
// of merges over merge-written files, every section the merge writes —
// both fields' blocks, directory and dictionary, lengths and stored
// text, and the decoded toc — equals the section a fresh BuildFrom(base docs ++ added
// docs) writes. Bases past one 2^16 chunk range make merged lists whose
// leading blocks are copied and whose last one is re-encoded, dense
// chunks included.
func TestMergeWriterEqualsFreshBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	schema := extendSchema()
	type trial struct {
		n0      int   // base documents
		batches []int // documents each merge adds
		segSize int
		mapped  bool // the first base is a mapped image, not a heap build
	}
	trials := []trial{
		{0, []int{7}, 16, false},
		{40, []int{0}, 16, true},
		{40, []int{1, 13, 2*minDocsPerWorker + 13}, 4, false},
		{300, []int{rng.Intn(300) + 1, rng.Intn(300) + 1}, 128, true},
		{postings.ContainerSpan - 20, []int{50, 300}, 16, false},
		{postings.ContainerSpan + 5000, []int{rng.Intn(300) + 1}, 128, true},
	}
	for i := 0; i < 6; i++ {
		tr := trial{n0: rng.Intn(500), segSize: []int{4, 16, 128}[rng.Intn(3)], mapped: rng.Intn(2) == 0}
		for k := rng.Intn(3) + 1; k > 0; k-- {
			tr.batches = append(tr.batches, rng.Intn(200))
		}
		trials = append(trials, tr)
	}
	for _, tr := range trials {
		name := fmt.Sprintf("n0=%d/batches=%v/seg=%d/mapped=%v", tr.n0, tr.batches, tr.segSize, tr.mapped)
		total := tr.n0
		for _, n := range tr.batches {
			total += n
		}
		docs := mergeDocs(rng, total)
		base, err := BuildFrom(schema, tr.segSize, docs[:tr.n0])
		if err != nil {
			t.Fatal(err)
		}
		if tr.mapped {
			if base, err = OpenMappedBytes(pagedImage(t, base), 0); err != nil {
				t.Fatal(err)
			}
		}
		upto := tr.n0
		for _, n := range tr.batches {
			added, err := analyze(schema, tr.segSize, DocID(upto), docs[upto:upto+n])
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := writeMerged(&got, 0, base, added); err != nil {
				t.Fatalf("%s: merge: %v", name, err)
			}
			upto += n
			fresh, err := BuildFrom(schema, tr.segSize, docs[:upto])
			if err != nil {
				t.Fatal(err)
			}
			assertSameImage(t, got.Bytes(), pagedImage(t, fresh))
			// The next merge reads what this one wrote, as compaction does.
			if base, err = OpenMappedBytes(got.Bytes(), 0); err != nil {
				t.Fatalf("%s: open merged image: %v", name, err)
			}
		}
	}
}

// TestSaveExtendedRefusesCorruptBlock: a flipped payload byte of a
// mapped base fails the merge with a *postings.BlockCorruptError,
// whether the block's term is copied or merged, and a flipped byte of
// its stored text fails it too; no failed merge leaves a file.
func TestSaveExtendedRefusesCorruptBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	docs := mergeDocs(rng, 400)
	base, err := BuildFrom(extendSchema(), 16, docs[:300])
	if err != nil {
		t.Fatal(err)
	}
	img := pagedImage(t, base)
	payload := v5Sections(t, img)["postings"] // aliases img
	ix, err := OpenMappedBytes(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	added, err := analyze(ix.schema, ix.segSize, 300, docs[300:])
	if err != nil {
		t.Fatal(err)
	}
	copied := ""
	for _, term := range ix.Terms("content") {
		if added.field("content").terms[term] == nil {
			copied = term
			break
		}
	}
	for _, term := range []string{"alpha", copied} { // merged, then copied
		d := &ix.fields["content"].dict
		i, _ := d.find(term)
		meta := d.meta(i)
		off := int(binary.LittleEndian.Uint64(ix.termDir(meta)[8:16])) // the first block's payload offset
		payload[off] ^= 0x01
		path := filepath.Join(t.TempDir(), "index.000001.gob")
		err := SaveExtendedFS(fsx.OS, path, ix, docs[300:])
		payload[off] ^= 0x01
		var bce *postings.BlockCorruptError
		if !errors.As(err, &bce) {
			t.Fatalf("term %q: merge over a corrupt block returned %v, want a *postings.BlockCorruptError", term, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("term %q: a failed merge left %s (stat: %v)", term, path, err)
		}
	}
	stored := v5Sections(t, img)["stored"]
	stored[len(stored)-1] ^= 0x01 // the last stored byte, read only by the copy
	path := filepath.Join(t.TempDir(), "index.000001.gob")
	err = SaveExtendedFS(fsx.OS, path, ix, docs[300:])
	stored[len(stored)-1] ^= 0x01
	if err == nil || !strings.Contains(err.Error(), `section "stored" checksum mismatch`) {
		t.Fatalf("merge over corrupt stored text returned %v, want a stored checksum mismatch", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a failed merge left %s (stat: %v)", path, err)
	}
	// Restored, the same base merges cleanly.
	if err := SaveExtendedFS(fsx.OS, filepath.Join(t.TempDir(), "index.gob"), ix, docs[300:]); err != nil {
		t.Fatal(err)
	}
}
