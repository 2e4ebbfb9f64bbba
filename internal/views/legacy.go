package views

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"csrank/internal/snapshot"
)

// The gob catalog formats older builds wrote: version 2, one columnar
// group table per view, and version 1, one df and one tc map per group,
// each in the framed snapshot container, or version 1 as a bare gob
// stream from before the frame existed. They are durable state, so
// decodeLegacy keeps reading them, packing each view onto the heap as
// Materialize does; nothing writes them any more.

// decodeLegacy reads a catalog from a framed snapshot of payload
// version 1 or 2, verifying all checksums, or from a raw version-1 gob
// stream (sniffed by magic).
func decodeLegacy(r io.Reader) (*Catalog, error) {
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
	case 2:
		c, err = decodeV2(sr)
	default:
		err = fmt.Errorf("views: framed catalog format version %d not supported (this build reads 1 and 2 framed, 3 and %d paged)", hdr.PayloadVersion, CatalogFormatVersion)
	}
	if err != nil {
		return nil, err
	}
	if err := sr.Verify(); err != nil {
		return nil, fmt.Errorf("views: %w", err)
	}
	return c, nil
}

// catalogV2 is the version-2 payload: per view, the columns of the group
// table.
type catalogV2 struct {
	ContextThreshold int64
	ViewSizeLimit    int
	Views            []tableV2
}

type tableV2 struct {
	K, Tracked []string
	Pat        []byte    // the groups' patterns, ⌈|K|/8⌉ bytes each
	Count, Len []int64   // one per group
	Cols       []entries // one per tracked word
}

// decodeV2 deserializes a version-2 payload, validating the shape and
// the aggregates of every view.
func decodeV2(r io.Reader) (*Catalog, error) {
	var p catalogV2
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("views: decode: %w", err)
	}
	return p.catalog()
}

func (p catalogV2) catalog() (*Catalog, error) {
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
	for j, c := range t.Cols {
		if len(c.DF) != len(c.Rows) || len(c.TC) != len(c.Rows) {
			return nil, corruptf("column %q has %d rows, %d df, %d tc", v.tracked[j], len(c.Rows), len(c.DF), len(c.TC))
		}
	}
	v.pack(&table{pat: t.Pat, count: t.Count, length: t.Len, cols: t.Cols})
	return v, v.validate()
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

// The version-1 payload: one gob value holding, per group, its pattern
// key and a df and a tc map.

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

// decodeV1 converts a version-1 gob stream into version-2 tables, which
// decode as version 2 does.
func decodeV1(r io.Reader) (*Catalog, error) {
	var p persistentCatalog
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("views: decode: %w", err)
	}
	c := catalogV2{ContextThreshold: p.ContextThreshold, ViewSizeLimit: p.ViewSizeLimit, Views: make([]tableV2, len(p.Views))}
	for i, pv := range p.Views {
		t := &c.Views[i]
		*t = tableV2{K: pv.K, Tracked: pv.Tracked, Cols: make([]entries, len(pv.Tracked))}
		pw := (len(pv.K) + 7) / 8
		// Groups arrive in row order, so each word's entries do too.
		for r, g := range pv.Groups {
			if len(g.Key) != pw {
				return nil, corruptf("view %d: group pattern %x is %d bytes, |K| = %d needs %d", i, g.Key, len(g.Key), len(pv.K), pw)
			}
			t.Pat = append(t.Pat, g.Key...)
			t.Count, t.Len = append(t.Count, g.Count), append(t.Len, g.Len)
			for w, df := range g.DF {
				j, ok := slices.BinarySearch(pv.Tracked, w)
				if !ok {
					return nil, corruptf("view %d: group %x counts untracked word %q", i, g.Key, w)
				}
				col := &t.Cols[j]
				col.Rows, col.DF, col.TC = append(col.Rows, uint32(r)), append(col.DF, df), append(col.TC, g.TC[w])
			}
		}
	}
	return c.catalog()
}
