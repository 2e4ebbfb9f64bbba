// Package views implements the materialized-view technique of §4: a view
// V_K groups the wide sparse table by a set K of keyword columns and
// stores, per non-empty group, the aggregated parameters that
// collection-specific statistics need — COUNT(*) (context cardinality),
// SUM(len(d)) (context length), and per-tracked-word document counts and
// term counts (df/tc columns, kept only for frequent words per the §6.2
// storage optimization).
//
// Answering S_c(D_P) from a usable view (P ⊆ K, Theorem 4.1) touches only
// the view's non-empty groups whose bit pattern covers P — O(ViewSize)
// regardless of the context size (Theorem 4.2).
package views

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"csrank/internal/fsx"
	"csrank/internal/postings"
	"csrank/internal/widetable"
)

// View is a materialized view V_K, held as one columnar group table: row
// r is one GROUP BY partition — the documents sharing one membership bit
// pattern over K — and every aggregate is a column over rows. The
// columns are packed in one slab laid out as a catalog file stores it
// (persist.go), each column family at the narrowest width its values
// fit; a view opened from a file reads them where the mapping holds
// them, and every other view holds the same slab on the heap.
type View struct {
	// k holds the keyword columns K, sorted.
	k []string
	// pos maps a keyword to its bit position within the pattern.
	pos map[string]int
	// tracked lists the words with df/tc columns, sorted; wordID maps a
	// word to its index in tracked and cols.
	tracked []string
	wordID  map[string]int

	// rows is the number of groups: ViewSize(V_K).
	rows int
	// pw is the packed pattern width, ⌈|K|/8⌉ bytes; row r's pattern
	// (little-endian bytes, bit i = membership in k[i]) is
	// pat[r*pw:(r+1)*pw].
	pw  int
	pat []byte
	// slab holds the packed columns and pat; w holds the width of each
	// column family. count[r], COUNT(*) over partition r, starts the
	// slab; length[r], SUM(len(d)), starts at byte lengthAt.
	slab     []byte
	w        widths
	lengthAt int
	// cols[j] locates the sparse df/tc column of tracked[j] in the slab.
	cols []wordCol
	// member[i] is the set of rows whose pattern has bit i, as a bitset
	// over rows: the selection of a context is the AND of |P| of these.
	member [][]uint64
	// order lists the rows sorted by pattern: the canonical group order
	// of Fingerprint and Verify. Answer never reads it.
	order []int32

	// file is the first-use state of a view opened from a catalog file;
	// nil for a view built or decoded on the heap.
	file *fileState
}

// fileState is what a view opened from a catalog file keeps of it: its
// slab's checksum crc, and the first-use check (View.verified), which
// once runs; err is its verdict, and quarantined records a failure for
// the catalog's counters.
type fileState struct {
	crc         uint32
	once        sync.Once
	err         error
	quarantined atomic.Bool
}

// widths holds the byte width — 1, 2, 4 or 8 — of each column family of
// a slab.
type widths struct{ count, length, df, tc, row int }

// wordCol locates one tracked word's sparse parameter column in the
// slab: for each of the n rows holding at least one document that
// contains the word (rows ascending), the number of such documents and
// their summed term frequency. df, tc and row are the byte offsets of
// the three columns.
type wordCol struct{ n, df, tc, row int }

// column is a packed column: little-endian values of w bytes each.
type column struct {
	b []byte
	w int
}

// at returns value i. A width-8 value is read as int64, so one with its
// top bit set is negative — which checkAggregates rejects.
func (c column) at(i int) int64 {
	switch c.w {
	case 1:
		return int64(c.b[i])
	case 2:
		return int64(binary.LittleEndian.Uint16(c.b[2*i:]))
	case 4:
		return int64(binary.LittleEndian.Uint32(c.b[4*i:]))
	}
	return int64(binary.LittleEndian.Uint64(c.b[8*i:]))
}

// put stores x, which must fit the width, as value i.
func (c column) put(i int, x int64) {
	switch c.w {
	case 1:
		c.b[i] = byte(x)
	case 2:
		binary.LittleEndian.PutUint16(c.b[2*i:], uint16(x))
	case 4:
		binary.LittleEndian.PutUint32(c.b[4*i:], uint32(x))
	default:
		binary.LittleEndian.PutUint64(c.b[8*i:], uint64(x))
	}
}

func (v *View) col(at, n, w int) column { return column{v.slab[at : at+n*w : at+n*w], w} }

func (v *View) countCol() column  { return v.col(0, v.rows, v.w.count) }
func (v *View) lengthCol() column { return v.col(v.lengthAt, v.rows, v.w.length) }

// wordCols returns tracked word j's row-id, df and tc columns.
func (v *View) wordCols(j int) (rows, df, tc column) {
	c := v.cols[j]
	return v.col(c.row, c.n, v.w.row), v.col(c.df, c.n, v.w.df), v.col(c.tc, c.n, v.w.tc)
}

// ContextStats is the bundle of collection-specific statistics for one
// context, as answered by a view or computed directly.
type ContextStats struct {
	// Count is |D_P|.
	Count int64
	// Len is len(D_P).
	Len int64
	// DF maps each requested word w to df(w, D_P).
	DF map[string]int64
	// TC maps each requested word w to tc(w, D_P).
	TC map[string]int64
}

// Materialize builds V_K from the wide sparse table. K is deduplicated
// and sorted; trackedWords selects the df/tc parameter columns (words
// absent from the table's tf columns are ignored). Unknown keyword
// columns are an error. The aggregates are summed in int64 scratch and
// packed as a catalog file stores them.
func Materialize(t *widetable.Table, k []string, trackedWords []string) (*View, error) {
	words := make([]string, 0, len(trackedWords))
	for _, w := range trackedWords {
		if t.Tracked(w) {
			words = append(words, w)
		}
	}
	v := newView(k, words)
	cols := make([]widetable.ColID, len(v.k))
	for i, name := range v.k {
		id, ok := t.ColumnID(name)
		if !ok {
			return nil, fmt.Errorf("views: unknown keyword column %q", name)
		}
		cols[i] = id
	}

	// Pass 1: group every document by its membership pattern, keeping the
	// per-document row so the sparse tf columns can be folded in without
	// probing every (document, word) pair.
	var tb table
	rowOf := make(map[string]uint32)
	docRow := make([]uint32, t.NumDocs())
	buf := make([]byte, v.pw)
	for d := range docRow {
		// cols is ascending (ColIDs are assigned in sorted-name order and
		// v.k is sorted), so one merge walk replaces per-column probes.
		t.FillPattern(d, cols, buf)
		r, ok := rowOf[string(buf)]
		if !ok {
			r = uint32(len(tb.count))
			rowOf[string(buf)] = r
			tb.pat = append(tb.pat, buf...)
			tb.count, tb.length = append(tb.count, 0), append(tb.length, 0)
		}
		tb.count[r]++
		tb.length[r] += t.Len(d)
		docRow[d] = r
	}
	// Pass 2: per tracked word, walk its sparse column — cost is the
	// word's document frequency, not the collection size — summing into
	// dense per-row scratch and emitting the touched rows in order.
	rows := len(tb.count)
	df, tc := make([]int64, rows), make([]int64, rows)
	tb.cols = make([]entries, len(v.tracked))
	var touched []uint32
	for j, w := range v.tracked {
		touched = touched[:0]
		docs, tfs := t.TFColumn(w)
		for i, docID := range docs {
			if tf := tfs[i]; tf > 0 {
				r := docRow[docID]
				if df[r] == 0 {
					touched = append(touched, r)
				}
				df[r]++
				tc[r] += tf
			}
		}
		// A word in many rows takes its rows in order from one scan of the
		// scratch instead of a sort.
		if len(touched)*denseEmit < rows {
			slices.Sort(touched)
		} else {
			touched = touched[:0]
			for r := range df {
				if df[r] != 0 {
					touched = append(touched, uint32(r))
				}
			}
		}
		c := entries{Rows: slices.Clone(touched), DF: make([]int64, len(touched)), TC: make([]int64, len(touched))}
		for i, r := range touched {
			c.DF[i], c.TC[i] = df[r], tc[r]
			df[r], tc[r] = 0, 0
		}
		tb.cols[j] = c
	}
	v.pack(&tb)
	return v, nil
}

// denseEmit is Materialize's cut-over: a word touching at least
// rows/denseEmit rows scans the scratch instead of sorting its rows.
// Timed over 3 071 rows (a csbench shard's view) on one Xeon core, sorting
// rows/32 random rows and emitting them took 1.05 µs against the scan's
// 1.24 µs, and rows/16 took 2.29 µs against 1.50 µs.
const denseEmit = 24

// newView returns the empty view over keyword columns k with df/tc
// columns for tracked; both are sorted and deduplicated.
func newView(k, tracked []string) *View {
	v := &View{k: sortedSet(k), tracked: sortedSet(tracked)}
	v.pos = make(map[string]int, len(v.k))
	for i, name := range v.k {
		v.pos[name] = i
	}
	v.wordID = make(map[string]int, len(v.tracked))
	for j, w := range v.tracked {
		v.wordID[w] = j
	}
	v.pw = (len(v.k) + 7) / 8
	v.member = make([][]uint64, len(v.k))
	v.cols = make([]wordCol, len(v.tracked))
	return v
}

func sortedSet(s []string) []string {
	out := slices.Clone(s)
	sort.Strings(out)
	return slices.Compact(out)
}

// pattern returns row r's packed bit pattern.
func (v *View) pattern(r int) []byte { return v.pat[r*v.pw : (r+1)*v.pw] }

// index builds the lookups the slab does not store: the membership
// bitsets over its rows and the rows in pattern order. Patterns are not
// validated here; a duplicate or stray bit fails validate.
func (v *View) index() {
	for j := range v.member {
		v.member[j] = make([]uint64, (v.rows+63)/64)
	}
	v.order = make([]int32, v.rows)
	for r := range v.rows {
		p := v.pattern(r)
		for j := range v.member {
			if p[j/8]&(1<<(j%8)) != 0 {
				v.member[j][r/64] |= 1 << (r % 64)
			}
		}
		v.order[r] = int32(r)
	}
	slices.SortStableFunc(v.order, func(a, b int32) int { return bytes.Compare(v.pattern(int(a)), v.pattern(int(b))) })
}

// verified runs the view's first-use check once — for a view read from
// a catalog file, its slab's checksum and the table's shape and
// aggregates — and returns the verdict. A view that fails is
// quarantined: Match never returns it and Answer refuses it.
func (v *View) verified() error {
	f := v.file
	if f == nil {
		return nil
	}
	f.once.Do(func() {
		if f.err = v.checkSlab(); f.err != nil {
			f.quarantined.Store(true)
		}
	})
	return f.err
}

// K returns the view's keyword columns, sorted. Callers must not modify
// the returned slice.
func (v *View) K() []string { return v.k }

// Size returns ViewSize(V_K): the number of non-empty groups.
func (v *View) Size() int { return v.rows }

// TracksWord reports whether the view stores df/tc columns for w.
func (v *View) TracksWord(w string) bool {
	_, ok := v.wordID[w]
	return ok
}

// TrackedWords returns the words with df/tc columns, sorted.
func (v *View) TrackedWords() []string { return slices.Clone(v.tracked) }

// Usable implements Theorem 4.1's second condition: the view can answer
// statistics for context P iff P ⊆ K. (The first condition — the view
// carries the needed parameter column — is per-statistic: Count/Len are
// always stored; df/tc require TracksWord.)
func (v *View) Usable(p []string) bool {
	for _, m := range p {
		if _, ok := v.pos[m]; !ok {
			return false
		}
	}
	return true
}

// Answer computes the collection-specific statistics of context p from
// the view: |D_P|, len(D_P), and df/tc for every requested word the view
// tracks (untracked words are simply absent from the result maps — the
// caller computes them at query time per §6.2; a word requested twice is
// answered once). It ANDs the membership bitsets of p's keywords into the
// selection of covering rows, sums count and length over the selection,
// and walks each requested word's column testing the selection bit:
// O(|P|·G/64 + |selection| + Σ nnz(w)) for G rows. The cost-model charge
// recorded in st.ViewGroupsScanned stays ViewSize, the paper's unit.
// Answer returns an error if the view is not usable for p or fails its
// first-use check.
func (v *View) Answer(p []string, words []string, st *postings.Stats) (ContextStats, error) {
	if err := v.verified(); err != nil {
		return ContextStats{}, fmt.Errorf("views: view %v quarantined: %w", v.k, err)
	}
	sel := make([]uint64, (v.rows+63)/64)
	for i := range sel {
		sel[i] = ^uint64(0)
	}
	if v.rows%64 != 0 {
		sel[len(sel)-1] = 1<<(v.rows%64) - 1
	}
	for _, m := range p {
		pos, ok := v.pos[m]
		if !ok {
			return ContextStats{}, fmt.Errorf("views: view %v not usable for context %v", v.k, p)
		}
		for i, w := range v.member[pos] {
			sel[i] &= w
		}
	}
	res := ContextStats{DF: make(map[string]int64, len(words)), TC: make(map[string]int64, len(words))}
	res.Count, res.Len = groupTotals(v.countCol(), v.lengthCol(), sel)
	for _, w := range words {
		j, ok := v.wordID[w]
		if !ok {
			continue
		}
		if _, dup := res.DF[w]; dup {
			continue
		}
		rows, df, tc := v.wordCols(j)
		res.DF[w], res.TC[w] = wordTotals(rows, df, tc, sel)
	}
	if st != nil {
		st.ViewGroupsScanned += int64(v.rows)
	}
	return res, nil
}

// Answer's two loops run instantiated at the widths of the columns they
// read, through one switch per column per answer; at a csbench shard's
// widths that made the word loop 30 % faster than one width switch per
// value (column.at).

type unsigned interface {
	uint8 | uint16 | uint32 | uint64
}

// groupTotals sums count and length over the selected rows.
func groupTotals(count, length column, sel []uint64) (int64, int64) {
	switch count.w {
	case 1:
		return groupTotalsC(count.b, length, sel)
	case 2:
		return groupTotalsC(fsx.Uint16s(count.b), length, sel)
	case 4:
		return groupTotalsC(fsx.Uint32s(count.b), length, sel)
	}
	return groupTotalsC(fsx.Uint64s(count.b), length, sel)
}

func groupTotalsC[C unsigned](count []C, length column, sel []uint64) (int64, int64) {
	switch length.w {
	case 1:
		return selectedTotals(count, length.b, sel)
	case 2:
		return selectedTotals(count, fsx.Uint16s(length.b), sel)
	case 4:
		return selectedTotals(count, fsx.Uint32s(length.b), sel)
	}
	return selectedTotals(count, fsx.Uint64s(length.b), sel)
}

func selectedTotals[C, L unsigned](count []C, length []L, sel []uint64) (c, l int64) {
	for i, m := range sel {
		for ; m != 0; m &= m - 1 {
			r := i<<6 | bits.TrailingZeros64(m)
			c += int64(count[r])
			l += int64(length[r])
		}
	}
	return c, l
}

// wordTotals walks one word column and sums the df and tc of the
// entries whose row the selection holds.
func wordTotals(rows, df, tc column, sel []uint64) (int64, int64) {
	switch rows.w {
	case 1:
		return wordTotalsR(rows.b, df, tc, sel)
	case 2:
		return wordTotalsR(fsx.Uint16s(rows.b), df, tc, sel)
	case 4:
		return wordTotalsR(fsx.Uint32s(rows.b), df, tc, sel)
	}
	return wordTotalsR(fsx.Uint64s(rows.b), df, tc, sel)
}

func wordTotalsR[R unsigned](rows []R, df, tc column, sel []uint64) (int64, int64) {
	switch df.w {
	case 1:
		return wordTotalsRD(rows, df.b, tc, sel)
	case 2:
		return wordTotalsRD(rows, fsx.Uint16s(df.b), tc, sel)
	case 4:
		return wordTotalsRD(rows, fsx.Uint32s(df.b), tc, sel)
	}
	return wordTotalsRD(rows, fsx.Uint64s(df.b), tc, sel)
}

func wordTotalsRD[R, D unsigned](rows []R, df []D, tc column, sel []uint64) (int64, int64) {
	switch tc.w {
	case 1:
		return selectedEntries(rows, df, tc.b, sel)
	case 2:
		return selectedEntries(rows, df, fsx.Uint16s(tc.b), sel)
	case 4:
		return selectedEntries(rows, df, fsx.Uint32s(tc.b), sel)
	}
	return selectedEntries(rows, df, fsx.Uint64s(tc.b), sel)
}

func selectedEntries[R, D, T unsigned](rows []R, df []D, tc []T, sel []uint64) (sdf, stc int64) {
	for i, r := range rows {
		if sel[r>>6]&(1<<(r&63)) != 0 {
			sdf += int64(df[i])
			stc += int64(tc[i])
		}
	}
	return sdf, stc
}

// AnswerCtx is Answer under a context: an answer takes microseconds, so
// cancellation is checked once, before it starts, and a cancelled call
// charges nothing.
func (v *View) AnswerCtx(ctx context.Context, p []string, words []string, st *postings.Stats) (ContextStats, error) {
	if err := ctx.Err(); err != nil {
		return ContextStats{}, err
	}
	return v.Answer(p, words, st)
}

// Bytes estimates the view's storage footprint in the §6.2 cost model:
// per group, the packed pattern plus two 8-byte aggregates plus 12 bytes
// per sparse df/tc entry (a word reference and a packed count pair).
func (v *View) Bytes() int64 {
	b := int64(v.rows) * int64(v.pw+16)
	for _, c := range v.cols {
		b += int64(c.n) * 12
	}
	return b
}

// String implements fmt.Stringer.
func (v *View) String() string {
	return fmt.Sprintf("View{|K|=%d, size=%d}", len(v.k), v.Size())
}
