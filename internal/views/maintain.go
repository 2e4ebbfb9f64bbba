package views

// Incremental maintenance: materialized views are group-by aggregates
// with distributive functions (COUNT, SUM), so appending or removing a
// document touches exactly one group per view — no re-materialization.
// This covers the operational gap the paper leaves open (PubMed grows by
// thousands of citations a day while the MeSH vocabulary, and therefore
// the selected K sets, stays stable).

import (
	"fmt"
	"slices"
)

// DocUpdate describes one document for incremental view maintenance.
type DocUpdate struct {
	// Predicates are the document's predicate terms (after annotation
	// closure), in any order.
	Predicates []string
	// Len is the document's content length len(d).
	Len int64
	// TF maps content words to their term frequency in the document;
	// only words a view tracks contribute to that view.
	TF map[string]int64
}

// Apply folds one appended document into the view: the document's bit
// pattern over K is computed and that single row's aggregates are
// incremented (the row is appended, or revived, if the group was empty).
// A view read from a format-v3 file first copies its columns to the heap.
func (v *View) Apply(u DocUpdate) {
	v.own()
	r := v.rowFor(v.patternOf(u.Predicates))
	v.bump(r, 1, u.Len)
	for w, tf := range u.TF {
		if j, ok := v.wordID[w]; ok && tf > 0 {
			v.cols[j].add(uint32(r), 1, tf)
		}
	}
}

// checkRemove finds the row u was applied to and validates that removing
// u from it keeps every aggregate consistent, without mutating anything.
func (v *View) checkRemove(u DocUpdate) (int, error) {
	key := v.patternOf(u.Predicates)
	i, ok := v.find(key)
	if !ok || v.count[v.order[i]] < 1 {
		return 0, fmt.Errorf("views: remove from unknown group %x (document was never applied with this pattern)", key)
	}
	r := int(v.order[i])
	if v.length[r] < u.Len {
		return 0, fmt.Errorf("views: group %x len %d < removed document len %d", key, v.length[r], u.Len)
	}
	if v.count[r] == 1 && v.length[r] != u.Len {
		return 0, fmt.Errorf("views: removing the last document of group %x leaves residual len %d", key, v.length[r]-u.Len)
	}
	for w, tf := range u.TF {
		j, ok := v.wordID[w]
		if !ok || tf <= 0 {
			continue
		}
		df, tc := v.cols[j].get(uint32(r))
		if df < 1 {
			return 0, fmt.Errorf("views: group %x df(%s) would underflow", key, w)
		}
		if tc < tf {
			return 0, fmt.Errorf("views: group %x tc(%s) %d < removed tf %d", key, w, tc, tf)
		}
		if df == 1 && tc != tf {
			return 0, fmt.Errorf("views: removing the last %s-document of group %x leaves residual tc %d", w, key, tc-tf)
		}
	}
	return r, nil
}

// removeUnchecked applies a removal already validated by checkRemove.
func (v *View) removeUnchecked(r int, u DocUpdate) {
	v.own()
	v.bump(r, -1, -u.Len)
	for w, tf := range u.TF {
		if j, ok := v.wordID[w]; ok && tf > 0 {
			v.cols[j].add(uint32(r), -1, -tf)
		}
	}
	if v.count[r] > 0 {
		return
	}
	// The group is gone, and with it whatever a mismatched earlier update
	// left in its word columns: an empty row has no entries.
	for j := range v.cols {
		if i, ok := slices.BinarySearch(v.cols[j].Rows, uint32(r)); ok {
			v.cols[j].drop(i)
		}
	}
}

// patternOf packs the membership bit pattern of the given predicate
// terms over K.
func (v *View) patternOf(predicates []string) []byte {
	buf := make([]byte, v.pw)
	for _, p := range predicates {
		if pos, ok := v.pos[p]; ok {
			buf[pos/8] |= 1 << (pos % 8)
		}
	}
	return buf
}

// Apply folds one appended document into every serving view of the
// catalog; a quarantined view is left as it is.
func (c *Catalog) Apply(u DocUpdate) {
	for _, v := range c.views {
		if v.verified() == nil {
			v.Apply(u)
		}
	}
}

// Remove folds one deleted document out of every serving view of the
// catalog.
// All views are validated before any is mutated, so a mismatched update
// leaves the whole catalog untouched — no view ends up half a removal
// ahead of its siblings.
func (c *Catalog) Remove(u DocUpdate) error {
	vs := c.serving()
	rows := make([]int, len(vs))
	for i, v := range vs {
		r, err := v.checkRemove(u)
		if err != nil {
			return err
		}
		rows[i] = r
	}
	for i, v := range vs {
		v.removeUnchecked(rows[i], u)
	}
	return nil
}
