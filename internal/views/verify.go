package views

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"csrank/internal/index"
	"csrank/internal/widetable"
)

// Integrity audit: recompute view aggregates from the index — the source
// of truth — and report every group whose stored statistics drifted.
// Incremental maintenance is only trustworthy if a mismatched update can
// be *detected* after the fact; this is the detector the recovery tests
// run after every simulated crash.

// Drift describes one disagreement between a stored group and the same
// group recomputed from the index.
type Drift struct {
	// View is the index of the drifted view in the catalog's ascending
	// size order.
	View int
	// Key is the group's packed bit pattern over K.
	Key string
	// Field names the aggregate that disagrees ("count", "len",
	// "df(word)", "tc(word)", or "missing"/"phantom" for whole groups).
	Field string
	// Got is the stored value, Want the recomputed one.
	Got, Want int64
}

func (d Drift) String() string {
	return fmt.Sprintf("view %d group %x: %s = %d, index says %d", d.View, d.Key, d.Field, d.Got, d.Want)
}

// Fingerprint returns a deterministic digest of the catalog's full
// logical state: every group of every view, aggregates included, in
// canonical order. Two catalogs answer every context query identically
// iff their states match, so equal fingerprints across a crash and
// recovery mean query results are bit-identical — this is what the
// kill-point tests compare. The digest is order-insensitive across
// views (recovery re-sorts views by their current size, which drifts as
// documents are removed), and insensitive to gob's randomized map
// iteration, which makes raw snapshot bytes unusable for the purpose.
// Only serving views count: a quarantined view answers no query.
func (c *Catalog) Fingerprint() string {
	vs := c.serving()
	perView := make([]uint64, len(vs))
	for i, v := range vs {
		h := fnv.New64a()
		fmt.Fprintf(h, "k=%s\x00tracked=%s\x00", strings.Join(v.k, ","), strings.Join(v.tracked, ","))
		for _, g := range v.groups() {
			fmt.Fprintf(h, "g=%x c=%d l=%d", g.key, g.count, g.len)
			for _, c := range g.cells {
				fmt.Fprintf(h, " %s=%d/%d", c.word, c.df, c.tc)
			}
			h.Write([]byte{0})
		}
		perView[i] = h.Sum64()
	}
	sort.Slice(perView, func(a, b int) bool { return perView[a] < perView[b] })
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(c.ContextThreshold))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(c.ViewSizeLimit))
	h.Write(buf[:])
	for _, fp := range perView {
		binary.LittleEndian.PutUint64(buf[:], fp)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// VerifyOptions configures a Verify run.
type VerifyOptions struct {
	// SampleGroups bounds how many groups per view are compared (0 =
	// every group). Sampling is deterministic — an evenly spaced stride
	// over the sorted group keys — so repeated audits cover the same
	// groups and a drifting group is either always or never caught by
	// the same configuration.
	SampleGroups int
	// MaxDrift stops the audit after this many findings (0 = unlimited);
	// one corrupted view can otherwise produce a finding per group.
	MaxDrift int
}

// Verify recomputes each view's sampled groups from the index and
// reports every aggregate that drifted. A clean recovery must produce
// zero drift; any finding means the catalog and the index disagree and
// the catalog should be re-materialized (or restored from a snapshot and
// replayed). Quarantined views are skipped; Check reports them.
func (c *Catalog) Verify(ix *index.Index, opts VerifyOptions) ([]Drift, error) {
	var drift []Drift
	for vi, v := range c.views {
		if v.verified() != nil {
			continue
		}
		tbl := widetable.FromIndex(ix, v.TrackedWords())
		want, err := Materialize(tbl, v.k, v.TrackedWords())
		if err != nil {
			return drift, fmt.Errorf("views: verify view %d: %w", vi, err)
		}
		drift = append(drift, compareViews(vi, v, want, opts)...)
		if opts.MaxDrift > 0 && len(drift) >= opts.MaxDrift {
			return drift[:opts.MaxDrift], nil
		}
	}
	return drift, nil
}

// group is one non-empty row as the audits see it: they walk a view
// group by group, which the columnar table does not store.
type group struct {
	key        string // the packed bit pattern over K
	count, len int64
	cells      []cell // the group's word-column entries, in word order
}

type cell struct {
	word   string
	df, tc int64
}

// groups transposes the table into its groups, in pattern order.
func (v *View) groups() []group {
	cells := make([][]cell, v.rows)
	for j := range v.cols {
		rows, df, tc := v.wordCols(j)
		for i := range v.cols[j].n {
			r := rows.at(i)
			cells[r] = append(cells[r], cell{v.tracked[j], df.at(i), tc.at(i)})
		}
	}
	count, length := v.countCol(), v.lengthCol()
	out := make([]group, len(v.order))
	for i, r := range v.order {
		out[i] = group{string(v.pattern(int(r))), count.at(int(r)), length.at(int(r)), cells[r]}
	}
	return out
}

// compareViews diffs the stored view against the recomputed one over a
// deterministic sample of group keys.
func compareViews(vi int, got, want *View, opts VerifyOptions) []Drift {
	// Both group lists are in key order: one merge walk pairs them up,
	// leaving nil where a side has no such group.
	type pair struct{ g, w *group }
	var pairs []pair
	for gs, ws := got.groups(), want.groups(); len(gs) > 0 || len(ws) > 0; {
		var p pair
		if len(ws) == 0 || len(gs) > 0 && gs[0].key <= ws[0].key {
			p.g = &gs[0]
		}
		if len(gs) == 0 || len(ws) > 0 && ws[0].key <= gs[0].key {
			p.w = &ws[0]
		}
		if p.g != nil {
			gs = gs[1:]
		}
		if p.w != nil {
			ws = ws[1:]
		}
		pairs = append(pairs, p)
	}
	if n := opts.SampleGroups; n > 0 && len(pairs) > n {
		stride := len(pairs) / n
		sample := make([]pair, 0, n)
		for i := 0; i < len(pairs) && len(sample) < n; i += stride {
			sample = append(sample, pairs[i])
		}
		pairs = sample
	}

	var out []Drift
	for _, p := range pairs {
		switch {
		case p.g == nil:
			out = append(out, Drift{View: vi, Key: p.w.key, Field: "missing", Got: 0, Want: p.w.count})
			continue
		case p.w == nil:
			out = append(out, Drift{View: vi, Key: p.g.key, Field: "phantom", Got: p.g.count, Want: 0})
			continue
		}
		diff := func(field string, g, w int64) {
			if g != w {
				out = append(out, Drift{View: vi, Key: p.g.key, Field: field, Got: g, Want: w})
			}
		}
		diff("count", p.g.count, p.w.count)
		diff("len", p.g.len, p.w.len)
		words := map[string][2]cell{} // a word's entry on each side; absent is zero
		for side, g := range []*group{p.g, p.w} {
			for _, c := range g.cells {
				e := words[c.word]
				e[side] = c
				words[c.word] = e
			}
		}
		for w, e := range words {
			diff("df("+w+")", e[0].df, e[1].df)
			diff("tc("+w+")", e[0].tc, e[1].tc)
		}
	}
	return out
}
