package views

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"csrank/internal/fsx"
)

// Catalog holds the materialized views selected for a collection, plus
// the selection thresholds, and answers the query-time matching question:
// which usable view (if any) should compute the statistics of context P?
// Per §6.3, when several views are usable the one with minimal size wins,
// since answering cost is proportional to ViewSize. A catalog opened
// from a paged file reads its views' columns from a mapping of the file
// until Close.
type Catalog struct {
	views []*View
	// exact indexes views by the signature of their keyword set K,
	// mapping to the earliest (hence smallest, by the sort order) view
	// with exactly that K. A context equal to some view's K hits here in
	// O(|P|) instead of scanning the catalog; ViewSize monotonicity
	// (K ⊆ K' ⇒ Size(V_K) ≤ Size(V_K')) guarantees the exact view has
	// minimal size among all usable views.
	exact map[string]int
	// bandStart[i] is the index of the first view whose Size equals
	// views[i]'s — the start of i's equal-size band. An exact hit must
	// still check the earlier views of its band: the linear scan would
	// have returned the first usable equal-size view, and Match promises
	// the same answer. Views in strictly earlier bands cannot be usable
	// for the exact view's K: all views are materialized over one data
	// snapshot at construction, so ViewSize monotonicity held when the
	// order was fixed.
	bandStart []int
	// ContextThreshold is T_C: contexts at least this large are covered.
	ContextThreshold int64
	// ViewSizeLimit is T_V: the maximum non-empty tuple count per view.
	ViewSizeLimit int
	// m is the mapping a catalog opened from a paged file serves from;
	// Close releases it.
	m *fsx.Mapping
}

// NewCatalog builds a catalog from materialized views. Views are kept in
// ascending size order so Match scans from the cheapest candidate, and
// indexed by keyword-set signature so exact-K contexts match in O(|P|).
func NewCatalog(vs []*View, tc int64, tv int) *Catalog {
	sorted := append([]*View(nil), vs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Size() < sorted[j].Size() })
	c := &Catalog{views: sorted, ContextThreshold: tc, ViewSizeLimit: tv}
	c.exact = make(map[string]int, len(sorted))
	c.bandStart = make([]int, len(sorted))
	for i, v := range sorted {
		if i > 0 && sorted[i-1].Size() == v.Size() {
			c.bandStart[i] = c.bandStart[i-1]
		} else {
			c.bandStart[i] = i
		}
		sig := keySignature(v.K())
		if _, dup := c.exact[sig]; !dup {
			c.exact[sig] = i
		}
	}
	return c
}

// keySignature joins a sorted, deduplicated term set into a map key.
// Analyzed terms never contain NUL, so the join is collision-free; Match
// re-verifies the hit anyway, so even a pathological collision cannot
// produce a wrong view.
func keySignature(terms []string) string {
	return strings.Join(terms, "\x00")
}

// canonicalTerms returns p sorted and deduplicated, copying only when p
// is not already canonical (the engine's analyzer always hands Match
// canonical contexts, so the common case allocates nothing).
func canonicalTerms(p []string) []string {
	for i := 1; i < len(p); i++ {
		if p[i] <= p[i-1] {
			return sortedSet(p)
		}
	}
	return p
}

// Len returns the number of views, quarantined ones included.
func (c *Catalog) Len() int { return len(c.views) }

// Match returns the smallest usable view for context p, or nil if no view
// covers p (the engine then falls back to the straightforward
// evaluation). Contexts equal to some view's keyword set — the common
// case when view selection mined the query workload — resolve through
// the signature index without scanning the catalog; everything else
// falls back to the ordered subset scan. Both paths return exactly the
// view the plain linear scan would. A view is checked on the first Match
// that would return it (View.verified); a quarantined view is skipped,
// as if the catalog did not hold it.
func (c *Catalog) Match(p []string) *View {
	q := canonicalTerms(p)
	if i, ok := c.exact[keySignature(q)]; ok {
		v := c.views[i]
		// Re-verify the hit (collision paranoia): p ⊆ K plus equal
		// cardinality of two duplicate-free sets means K == p.
		if len(v.K()) == len(q) && v.Usable(q) {
			// The exact view has minimal size among usable views, but the
			// linear scan returns the *first* usable view in sort order:
			// an earlier view in the same equal-size band wins if usable.
			for j := c.bandStart[i]; j < i; j++ {
				if w := c.views[j]; w.Usable(q) && w.verified() == nil {
					return w
				}
			}
			if v.verified() == nil {
				return v
			}
		}
	}
	for _, v := range c.views {
		if v.Usable(q) && v.verified() == nil {
			return v
		}
	}
	return nil
}

// serving runs every view's first-use check and returns the views that
// pass it.
func (c *Catalog) serving() []*View {
	out := make([]*View, 0, len(c.views))
	for _, v := range c.views {
		if v.verified() == nil {
			out = append(out, v)
		}
	}
	return out
}

// Check runs every view's first-use check now, instead of on the first
// Match that would return the view, and reports each view it
// quarantines.
func (c *Catalog) Check() error {
	var errs []error
	for i, v := range c.views {
		if err := v.verified(); err != nil {
			errs = append(errs, fmt.Errorf("view %d (K = %v): %w", i, v.k, err))
		}
	}
	return errors.Join(errs...)
}

// Quarantined returns how many views have failed their first-use check
// so far; they serve no query.
func (c *Catalog) Quarantined() int {
	n := 0
	for _, v := range c.views {
		if v.file != nil && v.file.quarantined.Load() {
			n++
		}
	}
	return n
}

// TotalBytes returns the summed storage estimate of all views (the §6.2
// "total storage of the materialized views").
func (c *Catalog) TotalBytes() int64 {
	var b int64
	for _, v := range c.views {
		b += v.Bytes()
	}
	return b
}

// MaxBytes returns the largest single-view storage estimate.
func (c *Catalog) MaxBytes() int64 {
	var m int64
	for _, v := range c.views {
		if b := v.Bytes(); b > m {
			m = b
		}
	}
	return m
}

// MeanSize returns the average non-empty tuple count across views.
func (c *Catalog) MeanSize() float64 {
	if len(c.views) == 0 {
		return 0
	}
	var s int64
	for _, v := range c.views {
		s += int64(v.Size())
	}
	return float64(s) / float64(len(c.views))
}
