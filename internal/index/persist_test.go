package index

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrank/internal/postings"
	"csrank/internal/snapshot"
)

// persistentOf returns ix as a gob index stream's contents, tagged
// version, each term's list encoded by enc (nil: no terms) — the
// layout every gob format version shares — read through the index's
// accessors.
func persistentOf(ix *Index, version int, enc func(*postings.List) []byte) persistent {
	p := persistent{
		Version: version,
		Schema:  ix.Schema(),
		SegSize: ix.SegmentSize(),
		NumDocs: ix.NumDocs(),
		Lengths: make(map[string][]int32),
		Stored:  make(map[string][]string),
		Fields:  make(map[string]persistentField),
	}
	for _, f := range p.Schema.Fields {
		p.Lengths[f.Name] = ix.FieldLens(f.Name)
		if f.Stored {
			vs := make([]string, p.NumDocs)
			for d := range vs {
				vs[d] = ix.StoredField(DocID(d), f.Name)
			}
			p.Stored[f.Name] = vs
		}
		pf := persistentField{TotalLen: ix.TotalFieldLen(f.Name), Terms: make(map[string][]byte)}
		if enc != nil {
			for _, term := range ix.Terms(f.Name) {
				pf.Terms[term] = enc(ix.Postings(f.Name, term))
			}
		}
		p.Fields[f.Name] = pf
	}
	return p
}

// encodeGobStream writes ix as a raw gob index stream tagged version,
// each term's list encoded by enc.
func encodeGobStream(tb testing.TB, ix *Index, version int, enc func(*postings.List) []byte) []byte {
	tb.Helper()
	p := persistentOf(ix, version, enc)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// legacyEncode writes ix the way builds before the format-version tag
// did: the zero Version and per-term postings.EncodePostings payloads.
func legacyEncode(t *testing.T, ix *Index) []byte {
	return encodeGobStream(t, ix, 0, func(l *postings.List) []byte {
		return postings.EncodePostings(postingsOf(l))
	})
}

// encodeV3 writes ix as a raw gob stream of format v3, the way builds
// did before paged format v4 became the only written format: per-term
// postings.EncodeList payloads, which carry the score-bound metadata.
func encodeV3(tb testing.TB, ix *Index) []byte {
	return encodeGobStream(tb, ix, FormatVersion, postings.EncodeList)
}

// encodeV3Framed wraps encodeV3's stream in the checksummed snapshot
// frame, as those builds saved index files: a header, 256 KiB sections,
// and a trailer carrying the CRC32-C of every byte before it.
func encodeV3Framed(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	crc := func(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }
	out := binary.LittleEndian.AppendUint16([]byte(snapshot.Magic), snapshot.KindIndex)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, crc(out))
	for payload := encodeV3(tb, ix); len(payload) > 0; {
		n := min(256<<10, len(payload))
		out = binary.LittleEndian.AppendUint32(out, uint32(n))
		out = binary.LittleEndian.AppendUint32(out, crc(payload[:n]))
		out, payload = append(out, payload[:n]...), payload[n:]
	}
	out = binary.LittleEndian.AppendUint32(out, 0)
	return binary.LittleEndian.AppendUint32(out, crc(out[:len(out)-4]))
}

// TestV3FixturesLoad: the format-v3 files in testdata were written from
// fuzzSeedIndex by the last build that still wrote v3 (framed snapshot
// and raw gob). They, and encodeV3's output, must decode to the same
// postings, TFs, lengths, stored fields and bounds as a fresh build.
// Gob map order makes the bytes differ between writes, so the test
// compares decoded indexes, not bytes.
func TestV3FixturesLoad(t *testing.T) {
	want, err := fuzzSeedIndex()
	if err != nil {
		t.Fatal(err)
	}
	framed, err := os.ReadFile(filepath.Join("testdata", "v3-framed.snap"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "v3-raw.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if !snapshot.IsFramed(framed) || snapshot.IsFramed(raw) {
		t.Fatal("fixtures are not one framed and one raw stream")
	}
	for name, data := range map[string][]byte{
		"v3-framed.snap": framed,
		"v3-raw.gob":     raw,
		"encodeV3":       encodeV3(t, want),
		"encodeV3Framed": encodeV3Framed(t, want),
	} {
		got, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v := got.FormatVersion(); v != 0 {
			t.Fatalf("%s: gob stream reports format %d, want 0", name, v)
		}
		assertIndexEqual(t, got, want)
	}
}

// TestPersistLegacyFormat checks that untagged (version 0) streams still
// load: every term's postings, TFs, and derived totals must match the
// source index.
func TestPersistLegacyFormat(t *testing.T) {
	ix := buildTestIndex(t)
	got, err := Decode(bytes.NewReader(legacyEncode(t, ix)))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"content", "mesh"} {
		for _, term := range ix.Terms(field) {
			want := postingsOf(ix.Postings(field, term))
			have := postingsOf(got.Postings(field, term))
			if len(want) != len(have) {
				t.Fatalf("%s/%s: %d postings, want %d", field, term, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("%s/%s: posting %d = %v, want %v", field, term, i, have[i], want[i])
				}
			}
			if got.TotalTF(field, term) != ix.TotalTF(field, term) {
				t.Errorf("%s/%s: TotalTF mismatch", field, term)
			}
		}
	}
	if got.TotalFieldLen("content") != ix.TotalFieldLen("content") {
		t.Error("total length mismatch from legacy stream")
	}
}

// TestPersistDenseListRoundTrip round-trips an index whose predicate
// list is big enough to build a bitset container, checking that the
// container layout survives persistence.
func TestPersistDenseListRoundTrip(t *testing.T) {
	n := postings.DenseThreshold + 500
	docs := make([]Document, n)
	for i := range docs {
		mesh := "common"
		if i%3 == 0 {
			mesh += " rare" + fmt.Sprint(i%7)
		}
		docs[i] = doc("t", strings.Repeat("word ", i%4+1), mesh)
	}
	ix, err := BuildFrom(testSchema(), 0, docs)
	if err != nil {
		t.Fatal(err)
	}
	l := ix.Postings("mesh", "common")
	if _, dense := l.Containers(); dense == 0 {
		t.Fatalf("common list (%d postings) built no dense container", l.Len())
	}

	got, err := Decode(bytes.NewReader(encodeV3(t, ix)))
	if err != nil {
		t.Fatal(err)
	}
	gl := got.Postings("mesh", "common")
	if gl.Len() != l.Len() {
		t.Fatalf("round trip Len = %d, want %d", gl.Len(), l.Len())
	}
	sp, dn := l.Containers()
	gsp, gdn := gl.Containers()
	if sp != gsp || dn != gdn {
		t.Fatalf("containers (%d,%d) → (%d,%d) after round trip", sp, dn, gsp, gdn)
	}
	if gl.HasTFs() {
		t.Error("predicate list grew a TF array over the round trip")
	}
	cs := got.ContainerStats("mesh")
	if cs.DenseChunks == 0 || cs.Lists == 0 {
		t.Errorf("ContainerStats after round trip = %+v", cs)
	}
	r := postings.Intersect([]*postings.List{gl, got.Postings("mesh", "rare0")}, nil)
	w := postings.Intersect([]*postings.List{l, ix.Postings("mesh", "rare0")}, nil)
	if len(r.DocIDs) != len(w.DocIDs) {
		t.Errorf("dense∩sparse after round trip = %d docs, want %d", len(r.DocIDs), len(w.DocIDs))
	}
}

// TestDecodeRejectsUnknownVersion checks that a stream from a future
// format fails loudly instead of being misread.
func TestDecodeRejectsUnknownVersion(t *testing.T) {
	ix := buildTestIndex(t)
	p := persistent{Version: FormatVersion + 1, Schema: ix.schema, SegSize: ix.segSize}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil {
		t.Error("expected error for unknown format version")
	}
}
