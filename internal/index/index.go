// Package index implements a multi-field inverted index over a document
// collection: the "standard text search system" substrate the paper builds
// on (the role Lucene plays in the paper's experiments). Each field has its
// own term dictionary and posting lists; per-document field lengths are kept
// for ranking. Every index is a paged format-v5 image (mapped.go), served
// in place: a file from its memory mapping, an in-process build from the
// image the one writer produced in memory. Gob streams older builds wrote
// (formats 0–3) still load, through that writer.
package index

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"csrank/internal/analysis"
	"csrank/internal/fsx"
	"csrank/internal/postings"
	"csrank/internal/snapshot"
)

// DocID identifies a document within an index. IDs are dense and assigned
// in insertion order starting at 0, which keeps posting lists sorted by
// construction.
type DocID = uint32

// FieldSpec declares one indexed field and the analyzer applied to it.
type FieldSpec struct {
	Name     string
	Analyzer *analysis.Analyzer
	// Stored retains the raw field text for retrieval-time display.
	Stored bool
}

// Schema describes the indexed fields of a collection and which field holds
// context predicates (the controlled vocabulary, e.g. MeSH annotations).
type Schema struct {
	Fields []FieldSpec
	// PredicateField names the field whose terms may appear in context
	// specifications. It must be one of Fields.
	PredicateField string
	// ContentField names the default field searched by keyword queries and
	// used for document lengths in ranking. It must be one of Fields.
	ContentField string
}

// Validate checks internal consistency of the schema.
func (s *Schema) Validate() error {
	names := make(map[string]bool, len(s.Fields))
	for _, f := range s.Fields {
		if f.Name == "" {
			return fmt.Errorf("index: schema has unnamed field")
		}
		if names[f.Name] {
			return fmt.Errorf("index: duplicate field %q", f.Name)
		}
		if f.Analyzer == nil {
			return fmt.Errorf("index: field %q has no analyzer", f.Name)
		}
		names[f.Name] = true
	}
	if !names[s.PredicateField] {
		return fmt.Errorf("index: predicate field %q is not declared", s.PredicateField)
	}
	if !names[s.ContentField] {
		return fmt.Errorf("index: content field %q is not declared", s.ContentField)
	}
	return nil
}

// Document is the unit of indexing: raw text per field name. Fields absent
// from the schema are ignored.
type Document struct {
	Fields map[string]string
}

// fieldIndex holds one field's dictionary and aggregate statistics:
// the dictionary columns, from which DF, TotalTF and each term's list
// are read, and the slots that publish each term's list once built.
type fieldIndex struct {
	dict termDict
	// lists publishes each term's list once built, in the slot its
	// dictionary ordinal numbers.
	lists []atomic.Pointer[postings.List]
	// totalLen is the sum of per-document field lengths.
	totalLen int64
}

// df returns term's document frequency, from its record. Like every
// fieldIndex method it reads a nil receiver (an unknown field) as an
// empty dictionary.
func (fi *fieldIndex) df(term string) int64 {
	if i, ok := fi.column().find(term); ok {
		return int64(fi.dict.meta(i).N)
	}
	return 0
}

// tc returns term's collection term count, from its record.
func (fi *fieldIndex) tc(term string) int64 {
	if i, ok := fi.column().find(term); ok {
		return fi.dict.meta(i).SumTF
	}
	return 0
}

// emptyDict is the dictionary of a field the index does not hold.
var emptyDict termDict

// column returns fi's dictionary columns (empty for a nil fi).
func (fi *fieldIndex) column() *termDict {
	if fi == nil {
		return &emptyDict
	}
	return &fi.dict
}

// Index is an immutable inverted index over a format-v5 image (or a v4
// file): built by BuildFrom or Extend into memory, decoded from a gob
// stream an older build wrote, or opened from a file, memory-mapped.
// Every one owns its paged image and a decoded-block cache; one over a
// mapping must be Closed when done.
type Index struct {
	schema  Schema
	fields  map[string]*fieldIndex
	lengths map[string][]int32 // field -> per-doc token counts
	numDocs int
	segSize int
	// version is the format of the stream the index was read from:
	// the paged header's, or 0 for a gob stream (see FormatVersion).
	version int

	paged   *snapshot.PagedFile
	mapping *fsx.Mapping // nil for an image held in memory
	cache   *postings.BlockCache
	stviews map[string]*storedView // stored fields read in place
	// dir and payload are the "dir" and "postings" sections a term's
	// list is built over.
	dir, payload []byte
	// quar is the index-wide corrupt-block registry: a block that fails
	// its CRC at materialization is blacklisted and served as an empty
	// container instead of panicking the query (see
	// postings.Quarantine).
	quar *postings.Quarantine
}

// Quarantined returns how many blocks this index has blacklisted after
// failing payload validation on the query path. A non-zero count means
// some containers read as empty and results over them are degraded;
// Verify still reports the underlying corruption.
func (ix *Index) Quarantined() int64 { return ix.quar.Blocks() }

// Schema returns the schema the index was built with.
func (ix *Index) Schema() Schema { return ix.schema }

// NumDocs returns the collection cardinality |D|.
func (ix *Index) NumDocs() int { return ix.numDocs }

// SegmentSize returns the skip-segment size (M0) of the index's lists.
func (ix *Index) SegmentSize() int { return ix.segSize }

// Postings returns the inverted list for term in field, or nil if either is
// unknown. The returned list is shared and must not be modified. The
// first lookup of a term builds its list from the block directory and
// publishes it with a CAS, so concurrent first lookups all return the
// one list that won.
func (ix *Index) Postings(field, term string) *postings.List {
	fi := ix.fields[field]
	i, ok := fi.column().find(term)
	if !ok {
		return nil
	}
	slot := &fi.lists[i]
	if l := slot.Load(); l != nil {
		return l
	}
	l := ix.buildList(fi.dict.meta(i))
	if !slot.CompareAndSwap(nil, l) {
		l = slot.Load()
	}
	return l
}

// eachList calls fn with every list of fi and the length of its term:
// the one walk of the offline statistics (PostingsBytes,
// ContainerStats, FieldBlockStats), whose sums do not depend on the
// order. A list no lookup has built yet is built for the walk only, not
// published, so the walk leaves the resident heap as it found it.
func (ix *Index) eachList(fi *fieldIndex, fn func(termLen int, l *postings.List)) {
	d := fi.column()
	for i := 0; i < d.len(); i++ {
		l := fi.lists[i].Load()
		if l == nil {
			l = ix.buildList(d.meta(i))
		}
		fn(len(d.key(i)), l)
	}
}

// DF returns the document frequency df(term, D) in field.
func (ix *Index) DF(field, term string) int64 { return ix.fields[field].df(term) }

// TotalTF returns the collection term count tc(term, D) in field: the
// total number of occurrences across all documents, read from the
// term's dictionary record.
func (ix *Index) TotalTF(field, term string) int64 { return ix.fields[field].tc(term) }

// FieldLen returns the token count of doc's field (len(d) for that field).
func (ix *Index) FieldLen(doc DocID, field string) int64 {
	ls := ix.lengths[field]
	if ls == nil || int(doc) >= len(ls) {
		return 0
	}
	return int64(ls[doc])
}

// FieldLens returns field's per-document token counts, indexed by DocID
// (nil for an unknown field): the column FieldLen reads, for callers
// that resolve the field once and index per document. The slice is
// shared — it aliases the image — and must not be modified.
func (ix *Index) FieldLens(field string) []int32 { return ix.lengths[field] }

// TotalFieldLen returns Σ_d len(d) over the whole collection for field
// (len(D) in the paper).
func (ix *Index) TotalFieldLen(field string) int64 {
	if fi := ix.fields[field]; fi != nil {
		return fi.totalLen
	}
	return 0
}

// UniqueTerms returns the dictionary size utc(D) of field.
func (ix *Index) UniqueTerms(field string) int { return ix.fields[field].column().len() }

// Terms returns field's dictionary sorted lexicographically. It allocates;
// intended for offline phases (view selection, corpus inspection), not the
// query path.
func (ix *Index) Terms(field string) []string { return ix.fields[field].column().strings() }

// TermsWithMinDF returns field terms whose document frequency is at least
// minDF, sorted by descending DF then term. This is the "frequent keywords"
// primitive used both by view selection (predicate terms with |L_m| ≥ T_C)
// and by the view storage optimization (df columns only for |L_w| ≥ T_C).
// It walks the dictionary in order, reading each record's DF, and copies
// only the terms that pass.
func (ix *Index) TermsWithMinDF(field string, minDF int64) []string {
	d := ix.fields[field].column()
	type hit struct {
		i  int
		df int64
	}
	var hits []hit
	for i := 0; i < d.len(); i++ {
		if df := int64(d.meta(i).N); df >= minDF {
			hits = append(hits, hit{i, df})
		}
	}
	// Stable over ordinal (term) order: equal DFs stay sorted by term.
	slices.SortStableFunc(hits, func(a, b hit) int { return cmp.Compare(b.df, a.df) })
	out := make([]string, len(hits))
	for j, h := range hits {
		out[j] = string(d.key(h.i))
	}
	return out
}

// StoredField returns the stored raw text of field for doc ("" if the field
// is not stored or the doc is out of range). The string materializes
// from the image on demand; nothing was decoded at open time.
func (ix *Index) StoredField(doc DocID, field string) string {
	if v, ok := ix.stviews[field]; ok {
		return v.at(doc)
	}
	return ""
}

// AnalyzerFor returns the analyzer declared for field, or nil.
func (ix *Index) AnalyzerFor(field string) *analysis.Analyzer {
	for _, f := range ix.schema.Fields {
		if f.Name == field {
			return f.Analyzer
		}
	}
	return nil
}

// PostingsBytes estimates the resident footprint of the index's posting
// data in bytes: the adaptive containers' payload (2 bytes per sparse key,
// 8 KiB per dense bitset chunk, 4 bytes per explicit TF) plus dictionary
// strings. Used by the storage-accounting experiment (§6.2).
func (ix *Index) PostingsBytes() int64 {
	var total int64
	for _, fi := range ix.fields {
		ix.eachList(fi, func(termLen int, l *postings.List) {
			total += int64(termLen) + l.Bytes()
		})
	}
	return total
}

// ContainerStats summarizes how a field's posting lists are stored in the
// adaptive container layer.
type ContainerStats struct {
	Lists        int
	Postings     int64
	SparseChunks int
	DenseChunks  int
	TFLists      int // lists carrying an explicit TF array
	Bytes        int64
	// BoundedLists counts lists carrying per-container score-bound
	// metadata (format v3); MaxTF and MinDocLen summarize the list-level
	// ceilings across them (the loosest bounds pruning ever works with).
	BoundedLists int
	MaxTF        uint32
	MinDocLen    int32
}

// ContainerStats reports the container breakdown of one field's lists.
func (ix *Index) ContainerStats(field string) ContainerStats {
	var cs ContainerStats
	fi := ix.fields[field]
	if fi == nil {
		return cs
	}
	cs.Lists = fi.column().len()
	ix.eachList(fi, func(_ int, l *postings.List) {
		cs.Postings += int64(l.Len())
		s, d := l.Containers()
		cs.SparseChunks += s
		cs.DenseChunks += d
		if l.HasTFs() {
			cs.TFLists++
		}
		if l.HasBounds() {
			if cs.BoundedLists == 0 || l.MinDocLen() < cs.MinDocLen {
				cs.MinDocLen = l.MinDocLen()
			}
			cs.BoundedLists++
			if l.MaxTF() > cs.MaxTF {
				cs.MaxTF = l.MaxTF()
			}
		}
		cs.Bytes += l.Bytes()
	})
	return cs
}

// FieldBlockStats aggregates the paged block layout over one field's
// posting lists, read from their block directories: encoding mix and
// on-disk footprint.
func (ix *Index) FieldBlockStats(field string) postings.BlockStats {
	var bs postings.BlockStats
	fi := ix.fields[field]
	if fi == nil {
		return bs
	}
	ix.eachList(fi, func(_ int, l *postings.List) {
		bs.AddTo(l.BlockStats())
	})
	return bs
}
