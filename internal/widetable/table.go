// Package widetable implements the relational formalization of §4.1: the
// document collection as a wide sparse table T whose keyword columns mark
// predicate-term membership (one column per context-specifiable keyword)
// and whose parameter columns carry the per-document values that
// collection-specific statistics aggregate (len(d), tf(d, w) for tracked
// content words).
//
// The table evaluates aggregation queries directly — SELECT Agg(param)
// FROM T WHERE m_j1 = 1 AND … — by scanning all rows. That O(|D|) scan is
// exactly what materialized views avoid; the table therefore serves both
// as the materialization source and as the semantic oracle the views
// package is differential-tested against.
package widetable

import (
	"fmt"
	"sort"

	"csrank/internal/index"
)

// ColID identifies a keyword column.
type ColID int32

// Table is the wide sparse table T.
type Table struct {
	numDocs int
	cols    []string
	colID   map[string]ColID
	// rows[d] lists the keyword columns set to 1 for document d, sorted.
	rows [][]ColID
	// lens[d] is the parameter column len(d).
	lens []int64
	// tf holds the tf(d, w) parameter columns of the tracked words, one
	// sparse column per word.
	tf map[string]tfColumn
}

// tfColumn is one word's sparse tf parameter column: the documents
// containing the word, ascending, and tf(d, w) of each.
type tfColumn struct {
	docs []uint32
	tfs  []int64
}

// FromIndex builds the table from an index: keyword columns are the
// predicate-field terms, len(d) comes from the content field, and tf
// parameter columns are created for trackedWords (the content keywords
// whose df/tc statistics views will answer).
func FromIndex(ix *index.Index, trackedWords []string) *Table {
	schema := ix.Schema()
	keywords := ix.Terms(schema.PredicateField)
	t := &Table{
		numDocs: ix.NumDocs(),
		cols:    keywords,
		colID:   make(map[string]ColID, len(keywords)),
		rows:    make([][]ColID, ix.NumDocs()),
		lens:    make([]int64, ix.NumDocs()),
		tf:      make(map[string]tfColumn, len(trackedWords)),
	}
	for i, k := range keywords {
		t.colID[k] = ColID(i)
	}
	for d := 0; d < ix.NumDocs(); d++ {
		t.lens[d] = ix.FieldLen(uint32(d), schema.ContentField)
	}
	// Invert predicate postings into per-row column sets. Iterating terms
	// in sorted order appends ascending ColIDs per row.
	for i, k := range keywords {
		id := ColID(i)
		ix.Postings(schema.PredicateField, k).ForEach(func(docID, _ uint32) {
			t.rows[docID] = append(t.rows[docID], id)
		})
	}
	for _, w := range trackedWords {
		l := ix.Postings(schema.ContentField, w)
		if l == nil {
			continue
		}
		// Posting order is ascending docID, so the column comes out sorted.
		c := tfColumn{docs: make([]uint32, 0, l.Len()), tfs: make([]int64, 0, l.Len())}
		l.ForEach(func(docID, tf uint32) {
			c.docs = append(c.docs, docID)
			c.tfs = append(c.tfs, int64(tf))
		})
		t.tf[w] = c
	}
	return t
}

// NumDocs returns the number of rows.
func (t *Table) NumDocs() int { return t.numDocs }

// NumColumns returns the number of keyword columns; ColIDs run from 0 to
// NumColumns()-1.
func (t *Table) NumColumns() int { return len(t.cols) }

// ColumnID resolves a keyword column name.
func (t *Table) ColumnID(name string) (ColID, bool) {
	id, ok := t.colID[name]
	return id, ok
}

// TrackedWords returns the words with tf parameter columns, sorted.
func (t *Table) TrackedWords() []string {
	out := make([]string, 0, len(t.tf))
	for w := range t.tf {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Row returns the keyword columns set for document d (sorted ascending).
// The returned slice is shared and must not be modified.
func (t *Table) Row(d int) []ColID { return t.rows[d] }

// Has reports whether row d has keyword column c set.
func (t *Table) Has(d int, c ColID) bool {
	row := t.rows[d]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= c })
	return i < len(row) && row[i] == c
}

// FillPattern zeroes buf and sets bit i for every column cols[i] present
// in row d, walking the row and the column list in one merge pass instead
// of one binary search per (row, column) pair. cols must be ascending —
// the order produced by resolving sorted keyword names — and buf must hold
// at least ceil(len(cols)/8) bytes. It is the views package's
// materialization scan primitive.
func (t *Table) FillPattern(d int, cols []ColID, buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	row := t.rows[d]
	i, j := 0, 0
	for i < len(row) && j < len(cols) {
		switch {
		case row[i] < cols[j]:
			i++
		case row[i] > cols[j]:
			j++
		default:
			buf[j/8] |= 1 << (j % 8)
			i++
			j++
		}
	}
}

// Len returns the len(d) parameter of row d.
func (t *Table) Len(d int) int64 { return t.lens[d] }

// Tracked reports whether w has a tf parameter column.
func (t *Table) Tracked(w string) bool {
	_, ok := t.tf[w]
	return ok
}

// TFColumn returns w's sparse tf parameter column: the documents
// containing w in ascending order, and tf(d, w) of each at the same
// position. Both are nil if w is untracked. The returned slices are
// shared and must not be modified; they let view materialization walk
// only the documents containing w instead of probing every document.
func (t *Table) TFColumn(w string) (docs []uint32, tfs []int64) {
	c := t.tf[w]
	return c.docs, c.tfs
}

// resolve maps predicate names to column IDs, failing on unknown columns.
func (t *Table) resolve(pred []string) ([]ColID, error) {
	ids := make([]ColID, len(pred))
	for i, p := range pred {
		id, ok := t.colID[p]
		if !ok {
			return nil, fmt.Errorf("widetable: unknown keyword column %q", p)
		}
		ids[i] = id
	}
	return ids, nil
}

func (t *Table) matches(d int, ids []ColID) bool {
	for _, id := range ids {
		if !t.Has(d, id) {
			return false
		}
	}
	return true
}

// Count evaluates SELECT COUNT(*) FROM T WHERE pred=1…: the context
// cardinality |D_P|.
func (t *Table) Count(pred []string) (int64, error) {
	ids, err := t.resolve(pred)
	if err != nil {
		return 0, err
	}
	var n int64
	for d := 0; d < t.numDocs; d++ {
		if t.matches(d, ids) {
			n++
		}
	}
	return n, nil
}

// SumLen evaluates SELECT SUM(len(d)) FROM T WHERE pred=1…: the context
// length len(D_P).
func (t *Table) SumLen(pred []string) (int64, error) {
	ids, err := t.resolve(pred)
	if err != nil {
		return 0, err
	}
	var sum int64
	for d := 0; d < t.numDocs; d++ {
		if t.matches(d, ids) {
			sum += t.lens[d]
		}
	}
	return sum, nil
}

// DF evaluates SELECT COUNT(*) FROM T WHERE pred=1… AND tf(d,w) > 0:
// the document count df(w, D_P). The word must be tracked.
func (t *Table) DF(w string, pred []string) (int64, error) {
	ids, err := t.resolve(pred)
	if err != nil {
		return 0, err
	}
	col, ok := t.tf[w]
	if !ok {
		return 0, fmt.Errorf("widetable: word %q has no tf column", w)
	}
	var n int64
	for _, d := range col.docs {
		if t.matches(int(d), ids) {
			n++
		}
	}
	return n, nil
}

// TC evaluates SELECT SUM(tf(d,w)) FROM T WHERE pred=1…: the term count
// tc(w, D_P). The word must be tracked.
func (t *Table) TC(w string, pred []string) (int64, error) {
	ids, err := t.resolve(pred)
	if err != nil {
		return 0, err
	}
	col, ok := t.tf[w]
	if !ok {
		return 0, fmt.Errorf("widetable: word %q has no tf column", w)
	}
	var sum int64
	for i, d := range col.docs {
		if t.matches(int(d), ids) {
			sum += col.tfs[i]
		}
	}
	return sum, nil
}
