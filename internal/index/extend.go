package index

import (
	"csrank/internal/postings"
)

// Extend builds a new immutable Index holding base's documents (same
// DocIDs, same order) followed by docs appended at DocIDs
// base.NumDocs()+i — the compaction primitive that drains a mutable
// segment into a shard without re-indexing the shard's corpus.
//
// base is never mutated and stays fully usable (live queries keep
// running on it while the extension builds): posting lists untouched by
// the new documents are shared by pointer — they are immutable, and
// their score bounds stay valid because their documents are unchanged —
// while every list a new document lands in is rebuilt from base's
// postings plus the appended ones, with content-field score bounds
// recomputed over the merged lengths.
//
// The result ranks bit-identically to a fresh build over the
// concatenated corpus: posting containers are a deterministic function
// of the (docID, tf) sequence and segment size, lengths and aggregate
// totals are additive, and bounds depend only on the list's own
// postings and document lengths. Extending a mapped (format-v4) base
// materializes the blocks of rebuilt lists through the base's cache;
// the caller must keep base open until the extension is persisted.
func Extend(base *Index, docs []Document) (*Index, error) {
	n0 := base.numDocs
	added, err := analyze(base.schema, base.segSize, DocID(n0), docs)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		schema:  base.schema,
		fields:  make(map[string]*fieldIndex, len(base.fields)),
		lengths: make(map[string][]int32, len(base.lengths)),
		stored:  make(map[string][]string),
		numDocs: n0 + len(docs),
		segSize: base.segSize,
	}

	for i, f := range base.schema.Fields {
		ab := &added.fields[i]
		ls := make([]int32, 0, n0+len(docs))
		ls = append(ls, base.lengths[f.Name]...)
		ix.lengths[f.Name] = append(ls, ab.lengths...)
		if f.Stored {
			vs := make([]string, 0, n0+len(docs))
			vs = append(vs, base.storedSlice(f.Name)...)
			ix.stored[f.Name] = append(vs, ab.stored...)
		}

		bfi := base.fields[f.Name]
		fi := &fieldIndex{
			terms:    make(map[string]*postings.List, bfi.size()+len(ab.terms)),
			totalLen: bfi.totalLen + ab.total,
			totalTF:  make(map[string]int64, bfi.size()+len(ab.terms)),
		}
		base.eachList(bfi, func(term string, l *postings.List) {
			if _, touched := ab.terms[term]; touched {
				return // rebuilt below
			}
			fi.terms[term] = l // shared: immutable, bounds still exact
			fi.totalTF[term] = bfi.tc(term)
		})

		isContent := f.Name == base.schema.ContentField
		merged := ix.lengths[f.Name]
		docLen := func(d DocID) int32 {
			if int(d) < len(merged) {
				return merged[d]
			}
			return 0
		}
		for term, apb := range ab.terms {
			pb := postings.NewBuilder(base.segSize)
			if old := base.Postings(f.Name, term); old != nil {
				old.ForEach(func(docID, tf uint32) {
					pb.Add(docID, tf)
				})
			}
			pb.Append(apb)
			l := pb.Build()
			if isContent {
				// Fresh builds attach score bounds to content-field lists
				// only; untouched lists keep theirs (still exact — their
				// documents did not change).
				l.BuildBounds(docLen)
			}
			fi.terms[term] = l
			fi.totalTF[term] = l.SumTF()
		}
		ix.fields[f.Name] = fi
	}
	return ix, nil
}
