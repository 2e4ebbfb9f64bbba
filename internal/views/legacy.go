package views

import (
	"encoding/gob"
	"fmt"
	"io"
)

// The version-1 payload: one gob value holding, per group, its pattern
// key and a df and a tc map. views.gob files written before format 2 —
// framed with payload version 1, or bare gob from before the frame
// existed — are durable state, so decodeV1 keeps reading them; nothing
// writes them any more.

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
// same row builder and the same validation as Decode.
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
