package index

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"csrank/internal/fsx"
	"csrank/internal/postings"
	"csrank/internal/snapshot"
)

// WritePaged writes the index's v5 image to w, as SaveMapped writes it
// to a file. pageSize ≤ 0 selects snapshot.DefaultPageSize; tests
// shrink it to keep fixtures small.
func (ix *Index) WritePaged(w io.Writer, pageSize int) error {
	return writeMerged(w, pageSize, ix, nil)
}

// synthIndex builds a randomized multi-field index large enough to
// produce sparse, dense and packed blocks plus elided TF columns.
func synthIndex(t testing.TB, rng *rand.Rand, numDocs int) *Index {
	t.Helper()
	vocab := make([]string, 120)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%02d", i)
	}
	mesh := []string{"neoplasms", "hemic_system", "digestive_system", "viruses", "parasites"}
	docs := make([]Document, numDocs)
	for d := range docs {
		var content []string
		for n := rng.Intn(30) + 3; n > 0; n-- {
			w := vocab[rng.Intn(len(vocab))]
			for r := rng.Intn(3) + 1; r > 0; r-- {
				content = append(content, w)
			}
		}
		docs[d] = doc(
			"title "+vocab[rng.Intn(len(vocab))],
			strings.Join(content, " "),
			mesh[rng.Intn(len(mesh))]+" "+mesh[rng.Intn(len(mesh))],
		)
	}
	ix, err := BuildFrom(testSchema(), 4, docs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// assertIndexesEqual checks every query-visible accessor agrees.
func assertIndexesEqual(t *testing.T, want, got *Index) {
	t.Helper()
	if want.NumDocs() != got.NumDocs() || want.SegmentSize() != got.SegmentSize() {
		t.Fatalf("shape differs: %d/%d docs, %d/%d segsize",
			want.NumDocs(), got.NumDocs(), want.SegmentSize(), got.SegmentSize())
	}
	for _, f := range []string{"title", "content", "mesh"} {
		wt, gt := want.Terms(f), got.Terms(f)
		if len(wt) != len(gt) {
			t.Fatalf("field %q: %d vs %d terms", f, len(gt), len(wt))
		}
		if want.TotalFieldLen(f) != got.TotalFieldLen(f) {
			t.Fatalf("field %q: TotalFieldLen differs", f)
		}
		for i, term := range wt {
			if gt[i] != term {
				t.Fatalf("field %q: term %d is %q, want %q", f, i, gt[i], term)
			}
			if want.DF(f, term) != got.DF(f, term) {
				t.Fatalf("field %q term %q: DF differs", f, term)
			}
			if want.TotalTF(f, term) != got.TotalTF(f, term) {
				t.Fatalf("field %q term %q: TotalTF %d vs %d", f, term, got.TotalTF(f, term), want.TotalTF(f, term))
			}
			wl, gl := want.Postings(f, term), got.Postings(f, term)
			if wl.Len() != gl.Len() || wl.HasTFs() != gl.HasTFs() || wl.HasBounds() != gl.HasBounds() {
				t.Fatalf("field %q term %q: list shape differs", f, term)
			}
			type pt struct{ d, tf uint32 }
			var wps, gps []pt
			wl.ForEach(func(d, tf uint32) { wps = append(wps, pt{d, tf}) })
			gl.ForEach(func(d, tf uint32) { gps = append(gps, pt{d, tf}) })
			for i := range wps {
				if wps[i] != gps[i] {
					t.Fatalf("field %q term %q: posting %d differs", f, term, i)
				}
			}
			if wl.HasBounds() && !slices.Equal(chunkBounds(wl), chunkBounds(gl)) {
				t.Fatalf("field %q term %q: container bounds differ", f, term)
			}
		}
	}
	for d := DocID(0); int(d) < want.NumDocs(); d++ {
		for _, f := range []string{"title", "content", "mesh"} {
			if want.FieldLen(d, f) != got.FieldLen(d, f) {
				t.Fatalf("doc %d field %q: length differs", d, f)
			}
		}
		if want.StoredField(d, "title") != got.StoredField(d, "title") {
			t.Fatalf("doc %d: stored title differs", d)
		}
	}
}

func TestMappedFileRoundTrip(t *testing.T) {
	ix := synthIndex(t, rand.New(rand.NewSource(2)), 200)
	path := filepath.Join(t.TempDir(), "index.v4")
	if err := ix.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	mx, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	assertIndexesEqual(t, ix, mx)
	if err := mx.Verify(); err != nil {
		t.Fatal(err)
	}
	// LoadFile negotiates to the mapped reader by magic.
	lx, err := LoadFileFS(fsx.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer lx.Close()
	if lx.mapping == nil {
		t.Fatalf("LoadFile did not map a v5 file")
	}
	assertIndexesEqual(t, ix, lx)
}

// TestMappedV3V4RoundTripEquivalence writes the same index as a framed
// v3 file (the format older builds wrote) and as v4, and reloads each:
// both must carry the full query-visible state. A v3 index re-saved
// is v4, so the v4 reload of the v3-loaded index must agree too.
func TestMappedV3V4RoundTripEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		ix := synthIndex(t, rng, rng.Intn(300)+10)
		dir := t.TempDir()
		v3 := filepath.Join(dir, "index.v3")
		v4 := filepath.Join(dir, "index.v4")
		if err := os.WriteFile(v3, encodeV3Framed(t, ix), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := ix.SaveMapped(v4); err != nil {
			t.Fatal(err)
		}
		ix3, err := LoadFileFS(fsx.OS, v3)
		if err != nil {
			t.Fatal(err)
		}
		ix4, err := LoadFileFS(fsx.OS, v4)
		if err != nil {
			t.Fatal(err)
		}
		assertIndexesEqual(t, ix3, ix4)
		// v3 → v4 upgrade: re-saving the gob-loaded index.
		up := filepath.Join(dir, "up.v4")
		if err := ix3.SaveMapped(up); err != nil {
			t.Fatal(err)
		}
		ixu, err := LoadFileFS(fsx.OS, up)
		if err != nil {
			t.Fatal(err)
		}
		if ixu.mapping == nil || ixu.FormatVersion() != MappedFormatVersion {
			t.Fatal("re-saved v3 index did not reload mapped at format v5")
		}
		assertIndexesEqual(t, ix, ixu)
		ixu.Close()
		ix4.Close()
	}
}

// TestMappedDetectsCorruption bit-flips every byte of a v4 image and
// truncates it at every length: each mutation must fail OpenMappedBytes
// or Verify. Small pages keep the sweep fast without losing a code path.
func TestMappedDetectsCorruption(t *testing.T) {
	ix := synthIndex(t, rand.New(rand.NewSource(4)), 40)
	var buf bytes.Buffer
	if err := ix.WritePaged(&buf, 64); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	check := func(img []byte) error {
		mx, err := OpenMappedBytes(img, 0)
		if err != nil {
			return err
		}
		return mx.Verify()
	}
	if err := check(full); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
	for cut := 0; cut < len(full); cut++ {
		if check(full[:cut]) == nil {
			t.Fatalf("truncation to %d bytes verified cleanly", cut)
		}
	}
	mut := append([]byte(nil), full...)
	for off := 0; off < len(mut); off++ {
		bit := byte(1) << uint(off%8)
		mut[off] ^= bit
		if check(mut) == nil {
			t.Fatalf("bit flip at byte %d verified cleanly", off)
		}
		mut[off] ^= bit
	}
}

// TestMappedCorruptBlockQuarantinedNotFatal: flipping a payload byte is
// invisible to the lazy open; the moment the block materializes it must
// be quarantined — the walk continues with the container served empty,
// the registry counts the block, and Verify still reports the raw
// corruption. A bitflip costs one container, not the process.
func TestMappedCorruptBlockQuarantinedNotFatal(t *testing.T) {
	ix := synthIndex(t, rand.New(rand.NewSource(5)), 100)
	var buf bytes.Buffer
	if err := ix.WritePaged(&buf, 64); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// Locate the postings section by diffing against the pristine open.
	mx, err := OpenMappedBytes(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	sec, ok := mx.paged.Section("postings")
	if !ok || len(sec) == 0 {
		t.Fatal("no postings section")
	}
	// Flip a byte inside the section (located by pointer identity within
	// the shared backing array).
	off := bytesIndexWithin(img, sec) + len(sec)/2
	img[off] ^= 0x10
	mx2, err := OpenMappedBytes(img, 0)
	if err != nil {
		t.Fatalf("lazy open rejected payload corruption eagerly: %v", err)
	}
	if mx2.Verify() == nil {
		t.Fatal("Verify missed payload corruption")
	}
	if got := mx2.Quarantined(); got != 0 {
		t.Fatalf("quarantined %d blocks before any query touched one", got)
	}
	// Walk every posting twice: no panic, and the second pass must not
	// double-count the blacklisted block.
	for pass := 0; pass < 2; pass++ {
		for _, f := range []string{"title", "content", "mesh"} {
			for _, term := range mx2.Terms(f) {
				mx2.Postings(f, term).ForEach(func(d, tf uint32) {})
			}
		}
		if got := mx2.Quarantined(); got != 1 {
			t.Fatalf("pass %d: quarantined %d blocks, want exactly 1", pass, got)
		}
	}
}

// TestMappedListsBuiltOnFirstLookup: opening a mapped index builds no
// posting list, and neither do the dictionary statistics or an offline
// walk; the first Postings lookup of a term builds its list once, and
// every later or concurrent lookup returns that same list without
// allocating.
func TestMappedListsBuiltOnFirstLookup(t *testing.T) {
	ix := synthIndex(t, rand.New(rand.NewSource(9)), 400)
	var buf bytes.Buffer
	if err := ix.WritePaged(&buf, 0); err != nil {
		t.Fatal(err)
	}
	mx, err := OpenMappedBytes(buf.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	built := func() int {
		n := 0
		for _, fi := range mx.fields {
			for i := range fi.lists {
				if fi.lists[i].Load() != nil {
					n++
				}
			}
		}
		return n
	}
	if n := built(); n != 0 {
		t.Fatalf("open built %d lists", n)
	}
	for _, f := range []string{"title", "content", "mesh"} {
		if ix.UniqueTerms(f) != mx.UniqueTerms(f) {
			t.Fatalf("field %q: UniqueTerms %d, want %d", f, mx.UniqueTerms(f), ix.UniqueTerms(f))
		}
		if !slices.Equal(ix.Terms(f), mx.Terms(f)) {
			t.Fatalf("field %q: Terms differ", f)
		}
		for _, minDF := range []int64{0, 1, 5, 50, 1000} {
			if !slices.Equal(ix.TermsWithMinDF(f, minDF), mx.TermsWithMinDF(f, minDF)) {
				t.Fatalf("field %q: TermsWithMinDF(%d) differs", f, minDF)
			}
		}
		for _, term := range ix.Terms(f) {
			if ix.DF(f, term) != mx.DF(f, term) || ix.TotalTF(f, term) != mx.TotalTF(f, term) {
				t.Fatalf("field %q term %q: DF/TotalTF %d/%d, want %d/%d", f, term,
					mx.DF(f, term), mx.TotalTF(f, term), ix.DF(f, term), ix.TotalTF(f, term))
			}
		}
		if ix.ContainerStats(f) != mx.ContainerStats(f) {
			t.Fatalf("field %q: ContainerStats differ", f)
		}
	}
	mx.PostingsBytes()
	if n := built(); n != 0 {
		t.Fatalf("statistics and offline walks built %d lists", n)
	}

	l := mx.Postings("content", "w07")
	if l == nil || mx.Postings("content", "w07") != l {
		t.Fatal("a repeated lookup returned a different list")
	}
	if n := built(); n != 1 {
		t.Fatalf("one looked-up term left %d lists built", n)
	}
	if mx.Postings("content", "absent") != nil || mx.Postings("nofield", "w07") != nil {
		t.Fatal("an unknown term or field has a list")
	}
	// A lookup of a built list, or of an absent term, allocates nothing.
	if n := testing.AllocsPerRun(100, func() {
		mx.DF("content", "w07")
		mx.TotalTF("content", "w07")
		mx.Postings("content", "w07")
		mx.Postings("content", "absent")
	}); n != 0 {
		t.Fatalf("dictionary lookups allocate %v times", n)
	}

	const racers = 16
	var start, done sync.WaitGroup
	start.Add(1)
	got := make([]*postings.List, racers)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = mx.Postings("mesh", "neoplasms")
		}()
	}
	start.Done()
	done.Wait()
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("racer %d got list %p, racer 0 got %p", i, g, got[0])
		}
	}
	if got[0] != mx.Postings("mesh", "neoplasms") {
		t.Fatal("the published list is not the one the racers got")
	}
}

// TestMappedRejectsSharedFirstBlock: each term's list must start at the
// directory block right after the previous term's, so a dictionary in
// which two terms start at the same block fails the open, as do
// records with reserved bits set and terms out of order.
func TestMappedRejectsSharedFirstBlock(t *testing.T) {
	ix := synthIndex(t, rand.New(rand.NewSource(10)), 100)
	img := pagedImage(t, ix)
	mx, err := OpenMappedBytes(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := &mx.fields["mesh"].dict // aliases img
	i, ok := d.find("viruses")
	if !ok || i == 0 {
		t.Fatalf("mesh dictionary lacks a second term viruses (%d, %v)", i, ok)
	}
	// The damaged copies are re-sealed, so only the dictionary check
	// can catch them.
	pf, err := snapshot.OpenPaged(img)
	if err != nil {
		t.Fatal(err)
	}
	reseal := func() []byte {
		t.Helper()
		var out bytes.Buffer
		pw, err := snapshot.NewPagedWriter(&out, snapshot.KindIndex, MappedFormatVersion, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"postings", "dir", "terms", "lengths", "stored", "toc"} {
			data, _ := pf.Section(name)
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
	rec := d.recs[i*postings.MappedListMetaSize:][:postings.MappedListMetaSize]
	prev := d.recs[(i-1)*postings.MappedListMetaSize:][:postings.MappedListMetaSize]
	key := d.key(i)
	for _, tc := range []struct {
		name, want string
		damage     func()
	}{
		{"shared first block", "starts at directory block", func() { copy(rec[12:16], prev[12:16]) }},
		{"reserved flag", "reserved bits", func() { rec[20] |= 0x80 }},
		{"reserved byte", "reserved bits", func() { rec[23] = 1 }},
		{"order", "not strictly ascending", func() { key[0] = 0 }},
	} {
		saved := append([]byte(nil), d.blob...)
		savedRec := append([]byte(nil), d.recs...)
		tc.damage()
		forged := reseal()
		copy(d.blob, saved)
		copy(d.recs, savedRec)
		if _, err := OpenMappedBytes(forged, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: open returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := OpenMappedBytes(reseal(), 0); err != nil {
		t.Fatalf("restored image: %v", err)
	}
}

// bytesIndexWithin returns the offset of sub within outer, where sub is
// a subslice of outer's backing array.
func bytesIndexWithin(outer, sub []byte) int {
	if len(sub) == 0 {
		return 0
	}
	for i := range outer {
		if &outer[i] == &sub[0] {
			return i
		}
	}
	return -1
}

// TestMappedOpenThroughFaultFS exercises the read-all fallback path:
// FaultFS cannot mmap, so MapFile copies — the reader must behave
// identically.
func TestMappedOpenThroughFaultFS(t *testing.T) {
	ix := synthIndex(t, rand.New(rand.NewSource(6)), 80)
	path := filepath.Join(t.TempDir(), "index.v4")
	if err := ix.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	ffs := fsx.NewFaultFS(fsx.OS)
	mx, err := LoadFileFS(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	if mx.paged == nil || mx.FormatVersion() != MappedFormatVersion {
		t.Fatal("fallback reader should still serve the paged image")
	}
	assertIndexesEqual(t, ix, mx)
}

func TestMappedRejectsGarbage(t *testing.T) {
	if _, err := OpenMappedBytes([]byte("not a paged file at all"), 0); err == nil {
		t.Fatal("garbage opened")
	}
	if _, err := OpenMappedBytes(nil, 0); err == nil {
		t.Fatal("empty image opened")
	}
}

func TestMappedBlockCacheAccounting(t *testing.T) {
	ix := synthIndex(t, rand.New(rand.NewSource(8)), 500)
	var buf bytes.Buffer
	if err := ix.WritePaged(&buf, 0); err != nil {
		t.Fatal(err)
	}
	mx, err := OpenMappedBytes(buf.Bytes(), 4096) // tiny budget
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range mx.Terms("content") {
		mx.Postings("content", term).ForEach(func(d, tf uint32) {})
	}
	cs := mx.BlockCacheStats()
	if cs.Budget != 4096 {
		t.Fatalf("budget %d", cs.Budget)
	}
	if cs.Insertions == 0 {
		t.Fatal("no decoded blocks charged (expected some TF columns)")
	}
	if cs.Used > 2*cs.Budget {
		t.Fatalf("cache used %d far over budget", cs.Used)
	}
}
