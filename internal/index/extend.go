package index

import (
	"bytes"

	"csrank/internal/postings"
	"csrank/internal/snapshot"
)

// Extend returns a new immutable Index holding base's documents (same
// DocIDs, same order) followed by docs appended at DocIDs
// base.NumDocs()+i: the index a compaction writes, held in memory.
// It is SaveExtendedFS's merge writer into a buffer, opened with
// OpenMappedBytes, so the result is an index over a v5 image that
// shares nothing with base.
//
// base is never mutated and stays fully usable (live queries keep
// running on it while the extension is written). The writer reads it
// from its compact form: base's blocks are copied verbatim for
// every term no new document contains — after a CRC check, so a
// corrupt block fails Extend with a *postings.BlockCorruptError instead
// of being rewritten — and decoded one at a time, into one scratch, for
// the terms new documents land in, whose content-field score bounds are
// recomputed over the merged lengths. Lengths and stored text are
// base's bytes followed by the new documents'.
//
// The result ranks bit-identically to a fresh build over the
// concatenated corpus, and its image is the one that build writes: a
// block is a deterministic function of its postings and bound, lengths
// and aggregate totals are additive, and bounds depend only on a list's
// own postings and document lengths.
func Extend(base *Index, docs []Document) (*Index, error) {
	added, err := analyze(base.schema, base.segSize, DocID(base.numDocs), docs)
	if err != nil {
		return nil, err
	}
	return openImage(base, added)
}

// openImage writes the v5 image of base's documents followed by
// added's (see writeMerged) into memory and opens it.
func openImage(base *Index, added *Builder) (*Index, error) {
	var buf bytes.Buffer
	buf.Grow(imageSizeHint(base, added))
	if err := writeMerged(&buf, 0, base, added); err != nil {
		return nil, err
	}
	return OpenMappedBytes(buf.Bytes(), 0)
}

// imageSizeHint estimates the bytes writeMerged writes for base and
// added, so the image buffer is allocated once instead of regrown as
// it fills: base's sections, plus per added term a dictionary entry, a
// directory entry with its padding and 3 bytes a posting (a raw key,
// sparse or dense, takes at most 2, a TF mostly 1), plus the added
// lengths and stored text. The buffer grows past it if need be.
func imageSizeHint(base *Index, added *Builder) int {
	const perTerm = 4 + postings.MappedListMetaSize + postings.BlockDirEntrySize + 8
	n := 8*snapshot.DefaultPageSize + len(base.payload) + len(base.dir) + 4*base.numDocs*len(base.lengths)
	for _, fi := range base.fields {
		n += 4*len(fi.dict.offs) + len(fi.dict.recs) + len(fi.dict.blob)
	}
	for _, v := range base.stviews {
		n += 4*len(v.offs) + len(v.blob)
	}
	if added == nil {
		return n
	}
	for i := range added.fields {
		fb := &added.fields[i]
		n += 4*len(fb.lengths) + 4*len(fb.stored)
		for _, s := range fb.stored {
			n += len(s)
		}
		for term, pb := range fb.terms {
			n += perTerm + len(term) + 3*pb.Len()
		}
	}
	return n
}
