package index

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"csrank/internal/postings"
)

// postingsOf materializes l as a posting slice.
func postingsOf(l *postings.List) []postings.Posting {
	ps := make([]postings.Posting, 0, l.Len())
	l.ForEach(func(d, tf uint32) { ps = append(ps, postings.Posting{DocID: d, TF: tf}) })
	return ps
}

// chunkBounds returns the score-bound metadata of every container of l,
// in docID order, read through a bound cursor.
func chunkBounds(l *postings.List) []postings.ChunkBound {
	var out []postings.ChunkBound
	for c := postings.NewBoundCursor(l, nil); !c.Exhausted(); c.SkipContainer() {
		b, _ := c.ContainerBound()
		out = append(out, b)
	}
	return out
}

// assertSameBounds fails unless both lists carry identical score-bound
// metadata: same container count, bit-for-bit equal per-container
// (MaxTF, MinDocLen), same list-level ceilings.
func assertSameBounds(t *testing.T, label string, want, got *postings.List) {
	t.Helper()
	if want.HasBounds() != got.HasBounds() {
		t.Fatalf("%s: HasBounds %v vs %v", label, want.HasBounds(), got.HasBounds())
	}
	if !want.HasBounds() {
		return
	}
	if w, g := chunkBounds(want), chunkBounds(got); !slices.Equal(w, g) {
		t.Fatalf("%s: container bounds %v vs %v", label, w, g)
	}
	if want.MaxTF() != got.MaxTF() || want.MinDocLen() != got.MinDocLen() {
		t.Fatalf("%s: list ceilings (%d,%d) vs (%d,%d)",
			label, want.MaxTF(), want.MinDocLen(), got.MaxTF(), got.MinDocLen())
	}
}

// boundsTestIndex builds a collection large enough that content lists mix
// sparse and dense containers, with varied TFs and lengths so bound
// metadata is non-trivial.
func boundsTestIndex(t *testing.T) *Index {
	t.Helper()
	n := postings.DenseThreshold + 700
	docs := make([]Document, n)
	for i := range docs {
		content := strings.Repeat("shared ", i%5+1) + strings.Repeat("pad ", i%9)
		if i%3 == 0 {
			content += strings.Repeat(" rareword", i%4+1)
		}
		docs[i] = doc(fmt.Sprintf("doc %d", i), content, "common")
	}
	ix, err := BuildFrom(testSchema(), 0, docs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestPersistV3BoundsRoundTrip: a decoded framed v3 stream — the
// snapshot older builds wrote — carries bound metadata bit-for-bit equal
// to a fresh build's. Decode recomputes the bounds over the persisted
// document lengths as the writer does for a build; the stream's own
// bounds are the same function of the same data.
func TestPersistV3BoundsRoundTrip(t *testing.T) {
	ix := boundsTestIndex(t)
	for _, term := range ix.Terms("content") {
		if !ix.Postings("content", term).HasBounds() {
			t.Fatalf("content list %q built without bounds", term)
		}
	}
	if ix.Postings("mesh", "common").HasBounds() {
		t.Fatal("predicate list grew bounds; only scored content lists should carry them")
	}
	got, err := ReadSnapshot(bytes.NewReader(encodeV3Framed(t, ix)))
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range ix.Terms("content") {
		assertSameBounds(t, "content/"+term, ix.Postings("content", term), got.Postings("content", term))
	}
	if got.Postings("mesh", "common").HasBounds() {
		t.Fatal("round trip attached bounds to a predicate list")
	}
}

// encodeV2 writes ix exactly the way version-2 builds did: the same
// container-aware list codec, but with every list stripped of bound
// metadata before encoding (v2 lists never carried the bounds flag).
func encodeV2(t *testing.T, ix *Index) []byte {
	return encodeGobStream(t, ix, 2, func(l *postings.List) []byte {
		bare := postings.NewList(postingsOf(l), ix.segSize)
		if bare.HasBounds() {
			t.Fatal("fresh NewList unexpectedly has bounds")
		}
		return postings.EncodeList(bare)
	})
}

// TestPersistV2RebuildsBoundsOnLoad: a version-2 stream (no bound bytes)
// must load cleanly and come out with bound metadata rebuilt from the
// persisted document lengths, equal to what index-time construction
// produced.
func TestPersistV2RebuildsBoundsOnLoad(t *testing.T) {
	ix := boundsTestIndex(t)
	got, err := Decode(bytes.NewReader(encodeV2(t, ix)))
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range ix.Terms("content") {
		assertSameBounds(t, "v2 content/"+term, ix.Postings("content", term), got.Postings("content", term))
	}
	if got.Postings("mesh", "common").HasBounds() {
		t.Fatal("v2 load attached bounds to a predicate list")
	}
}

// TestPersistLegacyRebuildsBounds: untagged version-0 streams
// (postings.EncodePostings payloads) also come back prunable.
func TestPersistLegacyRebuildsBounds(t *testing.T) {
	ix := buildTestIndex(t)
	got, err := Decode(bytes.NewReader(legacyEncode(t, ix)))
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range ix.Terms("content") {
		assertSameBounds(t, "legacy content/"+term, ix.Postings("content", term), got.Postings("content", term))
	}
}

// TestCorruptionSweepCoversBounds pins the premise of the framed
// corruption sweep in fuzz_persist_test.go: the index it exercises
// actually serializes bound metadata, so truncations and bit flips run
// through the v3 bound bytes too.
func TestCorruptionSweepCoversBounds(t *testing.T) {
	ix := buildTestIndex(t)
	var n int
	for _, term := range ix.Terms("content") {
		if ix.Postings("content", term).HasBounds() {
			n++
		}
	}
	if n == 0 {
		t.Fatal("corruption-sweep index has no bounded lists; the sweep no longer covers v3 bound bytes")
	}
}
