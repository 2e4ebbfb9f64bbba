package index

import "bytes"

// Extend returns a new immutable Index holding base's documents (same
// DocIDs, same order) followed by docs appended at DocIDs
// base.NumDocs()+i: the index a compaction writes, held in memory.
// It is SaveExtendedFS's merge writer into a buffer, opened with
// OpenMappedBytes, so the result is a mapped index over a v5 image that
// shares nothing with base.
//
// base is never mutated and stays fully usable (live queries keep
// running on it while the extension is written). The writer reads it
// from its compact form: a mapped base's blocks are copied verbatim for
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
	var buf bytes.Buffer
	if err := writeMerged(&buf, 0, base, added); err != nil {
		return nil, err
	}
	return OpenMappedBytes(buf.Bytes(), 0)
}
