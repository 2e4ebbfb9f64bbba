package views

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
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
			q := append([]string(nil), p...)
			sort.Strings(q)
			return dedupSorted(q)
		}
	}
	return p
}

// Views returns the catalog's views in ascending size order.
func (c *Catalog) Views() []*View { return c.views }

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

// MatchFirst returns the first view (in insertion order before sorting,
// i.e. arbitrary) that is usable — the naive matching policy used by the
// view-matching ablation. Production code should use Match.
func (c *Catalog) MatchFirst(p []string) *View {
	for i := len(c.views) - 1; i >= 0; i-- {
		if c.views[i].Usable(p) {
			return c.views[i]
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

type persistentGroup struct {
	Key   string
	Count int64
	Len   int64
	DF    map[string]int64
	TC    map[string]int64
}

type persistentView struct {
	K       []string
	Tracked []string
	Groups  []persistentGroup
}

type persistentCatalog struct {
	ContextThreshold int64
	ViewSizeLimit    int
	Views            []persistentView
}

// Encode serializes the catalog with encoding/gob.
func (c *Catalog) Encode(w io.Writer) error {
	p := persistentCatalog{
		ContextThreshold: c.ContextThreshold,
		ViewSizeLimit:    c.ViewSizeLimit,
		Views:            make([]persistentView, len(c.views)),
	}
	for i, v := range c.views {
		pv := persistentView{K: v.k, Tracked: v.TrackedWords()}
		for key, g := range v.groups {
			pv.Groups = append(pv.Groups, persistentGroup{
				Key: key, Count: g.Count, Len: g.Len, DF: g.DF, TC: g.TC,
			})
		}
		// Deterministic output order.
		sort.Slice(pv.Groups, func(a, b int) bool { return pv.Groups[a].Key < pv.Groups[b].Key })
		p.Views[i] = pv
	}
	return gob.NewEncoder(w).Encode(&p)
}

// Decode deserializes a catalog written by Encode.
func Decode(r io.Reader) (*Catalog, error) {
	var p persistentCatalog
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("views: decode: %w", err)
	}
	vs := make([]*View, len(p.Views))
	for i, pv := range p.Views {
		v := newView(pv.K)
		for _, w := range pv.Tracked {
			v.tracked[w] = true
		}
		for _, g := range pv.Groups {
			// Aggregates of a group-by over real documents are
			// non-negative by construction; a negative value can only be
			// corruption and would silently poison every ranking that
			// consults this view.
			if g.Count < 0 || g.Len < 0 {
				return nil, fmt.Errorf("views: decode: view %d group %x has negative aggregates (count=%d len=%d)", i, g.Key, g.Count, g.Len)
			}
			for w, df := range g.DF {
				if df < 0 || g.TC[w] < 0 {
					return nil, fmt.Errorf("views: decode: view %d group %x has negative df/tc for %q", i, g.Key, w)
				}
			}
			grp := &Group{Count: g.Count, Len: g.Len, DF: g.DF, TC: g.TC}
			if grp.DF == nil {
				grp.DF = make(map[string]int64)
			}
			if grp.TC == nil {
				grp.TC = make(map[string]int64)
			}
			v.groups[g.Key] = grp
		}
		vs[i] = v
	}
	return NewCatalog(vs, p.ContextThreshold, p.ViewSizeLimit), nil
}

// CatalogFormatVersion is the app-level version recorded in the framed
// snapshot header for catalog payloads.
const CatalogFormatVersion = 1

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

// ReadSnapshot reads a catalog from either a framed snapshot or a legacy
// raw-gob stream (sniffed by magic), verifying all checksums in the
// framed case.
func ReadSnapshot(r io.Reader) (*Catalog, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	prefix, err := br.Peek(len(snapshot.Magic))
	if err != nil || !snapshot.IsFramed(prefix) {
		return Decode(br)
	}
	sr, err := snapshot.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}
	if kind := sr.Header().Kind; kind != snapshot.KindViews {
		return nil, fmt.Errorf("views: snapshot holds payload kind %d, want %d (views)", kind, snapshot.KindViews)
	}
	c, err := Decode(sr)
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
