package views

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"csrank/internal/fsx"
	"csrank/internal/snapshot"
)

// Catalog holds the materialized views selected for a collection, plus
// the selection thresholds, and answers the query-time matching question:
// which usable view (if any) should compute the statistics of context P?
// Per §6.3, when several views are usable the one with minimal size wins,
// since answering cost is proportional to ViewSize.
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
	// order was fixed. (Usable itself depends only on the immutable K
	// sets, so later incremental maintenance never changes any Match
	// answer — it only drifts sizes, which both paths ignore.)
	bandStart []int
	// ContextThreshold is T_C: contexts at least this large are covered.
	ContextThreshold int64
	// ViewSizeLimit is T_V: the maximum non-empty tuple count per view.
	ViewSizeLimit int
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

// Len returns the number of views.
func (c *Catalog) Len() int { return len(c.views) }

// Match returns the smallest usable view for context p, or nil if no view
// covers p (the engine then falls back to the straightforward
// evaluation). Contexts equal to some view's keyword set — the common
// case when view selection mined the query workload — resolve through
// the signature index without scanning the catalog; everything else
// falls back to the ordered subset scan. Both paths return exactly the
// view the plain linear scan would.
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
				if c.views[j].Usable(q) {
					return c.views[j]
				}
			}
			return v
		}
	}
	for _, v := range c.views {
		if v.Usable(q) {
			return v
		}
	}
	return nil
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

// persistence ----------------------------------------------------------

// CatalogFormatVersion is the app-level version recorded in the framed
// snapshot header for catalog payloads. Version 2 is the columnar payload
// Encode writes; version 1 (one df and one tc map per group) and the
// pre-frame raw stream are read through decodeV1 and never written.
const CatalogFormatVersion = 2

// ErrCorrupt marks a catalog payload that parses but cannot describe a
// view — a pattern of the wrong width, a row reference past the table, an
// aggregate no group-by over real documents produces. Loading fails with
// it rather than handing queries a table they would index out of range.
var ErrCorrupt = errors.New("views: corrupt catalog")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// catalogV2 is the version-2 payload: per view, the columns of the group
// table as the view holds them, so loading builds nothing per group.
type catalogV2 struct {
	ContextThreshold int64
	ViewSizeLimit    int
	Views            []tableV2
}

type tableV2 struct {
	K, Tracked []string
	Pat        []byte    // the groups' patterns, ⌈|K|/8⌉ bytes each
	Count, Len []int64   // one per group
	Cols       []wordCol // one per tracked word
}

// Encode serializes the catalog as a version-2 payload (encoding/gob over
// catalogV2).
func (c *Catalog) Encode(w io.Writer) error {
	p := catalogV2{ContextThreshold: c.ContextThreshold, ViewSizeLimit: c.ViewSizeLimit, Views: make([]tableV2, len(c.views))}
	for i, v := range c.views {
		p.Views[i] = v.table()
	}
	return gob.NewEncoder(w).Encode(&p)
}

// table returns the view's columns without the rows Remove emptied. The
// remaining rows keep their relative order under the renumbering, so the
// word columns stay ascending.
func (v *View) table() tableV2 {
	t := tableV2{K: v.k, Tracked: v.tracked, Cols: make([]wordCol, len(v.cols))}
	renumber := make([]uint32, len(v.count))
	for r, n := range v.count {
		if n > 0 {
			renumber[r] = uint32(len(t.Count))
			t.Pat = append(t.Pat, v.pattern(r)...)
			t.Count = append(t.Count, n)
			t.Len = append(t.Len, v.length[r])
		}
	}
	for j, c := range v.cols {
		rows := make([]uint32, len(c.Rows))
		for i, r := range c.Rows {
			rows[i] = renumber[r]
		}
		t.Cols[j] = wordCol{Rows: rows, DF: c.DF, TC: c.TC}
	}
	return t
}

// Decode deserializes a catalog written by Encode, validating the shape
// and the aggregates of every view.
func Decode(r io.Reader) (*Catalog, error) {
	var p catalogV2
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("views: decode: %w", err)
	}
	vs := make([]*View, len(p.Views))
	for i, t := range p.Views {
		v, err := t.view()
		if err != nil {
			return nil, fmt.Errorf("views: decode: view %d: %w", i, err)
		}
		vs[i] = v
	}
	return NewCatalog(vs, p.ContextThreshold, p.ViewSizeLimit), nil
}

func (t tableV2) view() (*View, error) {
	v, err := decodedView(t.K, t.Tracked)
	if err != nil {
		return nil, err
	}
	rows := len(t.Count)
	if len(t.Len) != rows || len(t.Pat) != rows*v.pw || len(t.Cols) != len(v.cols) {
		return nil, corruptf("%d counts, %d lengths, %d pattern bytes for |K| = %d, %d columns for %d words",
			rows, len(t.Len), len(t.Pat), len(v.k), len(t.Cols), len(v.cols))
	}
	for r := 0; r < rows; r++ {
		if err := v.appendRow(t.Pat[r*v.pw : (r+1)*v.pw]); err != nil {
			return nil, err
		}
		v.bump(r, t.Count[r], t.Len[r])
	}
	for j, c := range t.Cols {
		if len(c.DF) != len(c.Rows) || len(c.TC) != len(c.Rows) {
			return nil, corruptf("column %q has %d rows, %d df, %d tc", v.tracked[j], len(c.Rows), len(c.DF), len(c.TC))
		}
		for i, r := range c.Rows {
			if int(r) >= rows || i > 0 && r <= c.Rows[i-1] {
				return nil, corruptf("column %q: row %d at entry %d is past the %d rows or not ascending", v.tracked[j], r, i, rows)
			}
		}
	}
	v.cols = t.Cols
	return v, v.checkAggregates()
}

// decodedView is newView for names read from a payload, which must
// already be what a view holds: sorted and duplicate-free.
func decodedView(k, tracked []string) (*View, error) {
	v := newView(k, tracked)
	if !slices.Equal(v.k, k) || !slices.Equal(v.tracked, tracked) {
		return nil, corruptf("keywords or tracked words not sorted and distinct")
	}
	return v, nil
}

// appendRow adds a decoded group's pattern as the next row. A pattern of
// the wrong width, with bits set past |K|, or already held by an earlier
// row is corrupt: Apply and Remove could never find such a row again.
func (v *View) appendRow(pat []byte) error {
	if len(pat) != v.pw {
		return corruptf("group pattern %x is %d bytes, |K| = %d needs %d", pat, len(pat), len(v.k), v.pw)
	}
	if used := len(v.k) % 8; used != 0 && pat[v.pw-1]>>used != 0 {
		return corruptf("group pattern %x sets bits past |K| = %d", pat, len(v.k))
	}
	if next := len(v.count); v.rowFor(pat) != next {
		return corruptf("group pattern %x appears twice", pat)
	}
	return nil
}

// checkAggregates validates a decoded view's aggregates: every group has
// a positive count and a non-negative length, every column entry df ≥ 1
// and tc ≥ 0, and each column's total fits int64 — so no Answer, a sum
// over a subset of non-negative entries, can overflow. A negative or
// wrapped value can only be corruption and would silently poison every
// ranking that consults the view.
func (v *View) checkAggregates() error {
	check := func(what string, xs []int64, floor int64) error {
		var total int64
		for i, x := range xs {
			if x < floor {
				return corruptf("%s[%d] = %d, want ≥ %d", what, i, x, floor)
			}
			if total += x; total < 0 {
				return corruptf("%s sums past int64", what)
			}
		}
		return nil
	}
	err := errors.Join(check("count", v.count, 1), check("len", v.length, 0))
	for j, w := range v.tracked {
		err = errors.Join(err, check("df of "+w, v.cols[j].DF, 1), check("tc of "+w, v.cols[j].TC, 0))
	}
	return err
}

// WriteSnapshot writes the catalog to w in the framed snapshot format:
// magic header, format version, per-section CRC32-C, whole-file trailer.
func (c *Catalog) WriteSnapshot(w io.Writer) error {
	sw, err := snapshot.NewWriter(w, snapshot.KindViews, CatalogFormatVersion)
	if err != nil {
		return err
	}
	if err := c.Encode(sw); err != nil {
		return err
	}
	return sw.Close()
}

// ReadSnapshot reads a catalog from a framed snapshot of either payload
// version, verifying all checksums, or from a legacy raw-gob stream
// (sniffed by magic).
func ReadSnapshot(r io.Reader) (*Catalog, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	prefix, err := br.Peek(len(snapshot.Magic))
	if err != nil || !snapshot.IsFramed(prefix) {
		return decodeV1(br)
	}
	sr, err := snapshot.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}
	hdr := sr.Header()
	if hdr.Kind != snapshot.KindViews {
		return nil, fmt.Errorf("views: snapshot holds payload kind %d, want %d (views)", hdr.Kind, snapshot.KindViews)
	}
	var c *Catalog
	switch hdr.PayloadVersion {
	case 1:
		c, err = decodeV1(sr)
	case CatalogFormatVersion:
		c, err = Decode(sr)
	default:
		err = fmt.Errorf("views: catalog format version %d not supported (this build reads 1 and %d)", hdr.PayloadVersion, CatalogFormatVersion)
	}
	if err != nil {
		return nil, err
	}
	if err := sr.Verify(); err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}
	return c, nil
}

// SaveFile writes the catalog to path as a framed, checksummed snapshot
// with an atomic write-to-temp + fsync + rename protocol: a crash at any
// instant leaves either the previous file or the complete new one.
func (c *Catalog) SaveFile(path string) error {
	return c.SaveFileFS(fsx.OS, path)
}

// SaveFileFS is SaveFile against an explicit filesystem (fault-injection
// tests substitute a crashing one).
func (c *Catalog) SaveFileFS(fs fsx.FS, path string) error {
	return fsx.WriteFileAtomic(fs, path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		if err := c.WriteSnapshot(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// LoadFile reads a catalog written by SaveFile — current framed files
// and pre-frame raw gob files alike.
func LoadFile(path string) (*Catalog, error) {
	return LoadFileFS(fsx.OS, path)
}

// LoadFileFS is LoadFile against an explicit filesystem.
func LoadFileFS(fs fsx.FS, path string) (*Catalog, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
