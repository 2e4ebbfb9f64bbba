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
// decodeLegacy keeps reading them onto the heap; nothing writes them
// any more.

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
		err = fmt.Errorf("views: framed catalog format version %d not supported (this build reads 1 and 2 framed, %d paged)", hdr.PayloadVersion, CatalogFormatVersion)
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
// table as the view holds them.
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

// decodeV2 deserializes a version-2 payload, validating the shape and
// the aggregates of every view.
func decodeV2(r io.Reader) (*Catalog, error) {
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
	v.pat, v.count, v.length, v.cols, v.live = t.Pat, t.Count, t.Len, t.Cols, rows
	v.index()
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

// appendRow adds a version-1 group's pattern as the next row. A pattern
// of the wrong width, with bits set past |K|, or already held by an
// earlier row is corrupt: Apply and Remove could never find such a row
// again.
func (v *View) appendRow(pat []byte) error {
	if len(pat) != v.pw {
		return corruptf("group pattern %x is %d bytes, |K| = %d needs %d", pat, len(pat), len(v.k), v.pw)
	}
	if err := v.checkPattern(pat); err != nil {
		return err
	}
	if next := len(v.count); v.rowFor(pat) != next {
		return corruptf("group pattern %x appears twice", pat)
	}
	return nil
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

// decodeV1 converts a version-1 gob stream into group tables through the
// row builder Apply uses, validating as it goes.
func decodeV1(r io.Reader) (*Catalog, error) {
	var p persistentCatalog
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("views: decode: %w", err)
	}
	vs := make([]*View, len(p.Views))
	for i, pv := range p.Views {
		v, err := pv.view()
		if err != nil {
			return nil, fmt.Errorf("views: decode: view %d: %w", i, err)
		}
		vs[i] = v
	}
	return NewCatalog(vs, p.ContextThreshold, p.ViewSizeLimit), nil
}

func (pv persistentView) view() (*View, error) {
	v, err := decodedView(pv.K, pv.Tracked)
	if err != nil {
		return nil, err
	}
	for r, g := range pv.Groups {
		if err := v.appendRow([]byte(g.Key)); err != nil {
			return nil, err
		}
		v.bump(r, g.Count, g.Len)
		// Groups arrive in row order, so each column grows at its end.
		for w, df := range g.DF {
			j, ok := v.wordID[w]
			if !ok {
				return nil, corruptf("group %x counts untracked word %q", g.Key, w)
			}
			v.cols[j].add(uint32(r), df, g.TC[w])
		}
	}
	return v, v.checkAggregates()
}
