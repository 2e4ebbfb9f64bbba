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
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"csrank/internal/postings"
	"csrank/internal/widetable"
)

// View is a materialized view V_K, held as one columnar group table: row
// r is one GROUP BY partition — the documents sharing one membership bit
// pattern over K — and every aggregate is a column over rows.
type View struct {
	// k holds the keyword columns K, sorted.
	k []string
	// pos maps a keyword to its bit position within the pattern.
	pos map[string]int
	// tracked lists the words with df/tc columns, sorted; wordID maps a
	// word to its index in tracked and cols.
	tracked []string
	wordID  map[string]int

	// pw is the packed pattern width, ⌈|K|/8⌉ bytes; row r's pattern
	// (little-endian bytes, bit i = membership in k[i]) is
	// pat[r*pw:(r+1)*pw].
	pw  int
	pat []byte
	// count[r] is COUNT(*) over partition r, length[r] is SUM(len(d)). A
	// row emptied by Remove keeps its slot with count 0 and no word-column
	// entries, so row numbers stay stable; it is not a group any more.
	count, length []int64
	// member[i] is the set of rows whose pattern has bit i, as a bitset
	// over rows: the selection of a context is the AND of |P| of these.
	member [][]uint64
	// cols[j] is the sparse df/tc column of tracked[j].
	cols []wordCol
	// order lists the rows sorted by pattern. It is the pattern→row index
	// of Apply and Remove, and the canonical group order of Fingerprint
	// and Verify; Answer never reads it.
	order []int32
	// live is the number of rows with count > 0: ViewSize(V_K).
	live int

	// file is the first-use state of a view opened from a format-v3
	// file; nil for a view built or decoded on the heap.
	file *fileState
}

// fileState is what a view opened from a format-v3 file keeps of it.
type fileState struct {
	// slab is the view's region of the file while pat, count, length and
	// every word column alias it; own clears it once it has copied them
	// to the heap. crc is its checksum.
	slab []byte
	crc  uint32
	// once runs the first-use check (View.verified); err is its verdict,
	// and quarantined records a failure for the catalog's counters.
	once        sync.Once
	err         error
	quarantined atomic.Bool
}

// wordCol is one tracked word's sparse parameter column: for every row
// holding at least one document that contains the word (rows ascending),
// the number of such documents and their summed term frequency. The
// fields are exported for the catalog encoding, which writes columns as
// they are.
type wordCol struct {
	Rows   []uint32
	DF, TC []int64
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
// columns are an error.
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
	docRow := make([]uint32, t.NumDocs())
	buf := make([]byte, v.pw)
	for d := range docRow {
		// cols is ascending (ColIDs are assigned in sorted-name order and
		// v.k is sorted), so one merge walk replaces per-column probes.
		t.FillPattern(d, cols, buf)
		r := v.rowFor(buf)
		v.bump(r, 1, t.Len(d))
		docRow[d] = uint32(r)
	}
	// Pass 2: per tracked word, walk its sparse column — cost is the
	// word's document frequency, not the collection size — summing into
	// dense per-row scratch and emitting the touched rows in order.
	df := make([]int64, len(v.count))
	tc := make([]int64, len(v.count))
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
		slices.Sort(touched)
		c := wordCol{Rows: slices.Clone(touched), DF: make([]int64, len(touched)), TC: make([]int64, len(touched))}
		for i, r := range touched {
			c.DF[i], c.TC[i] = df[r], tc[r]
			df[r], tc[r] = 0, 0
		}
		v.cols[j] = c
	}
	return v, nil
}

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

// find locates pattern p in v.order: ok reports whether a row holds it,
// and i is its position — or where it would be inserted.
func (v *View) find(p []byte) (i int, ok bool) {
	i = sort.Search(len(v.order), func(i int) bool { return bytes.Compare(v.pattern(int(v.order[i])), p) >= 0 })
	return i, i < len(v.order) && bytes.Equal(v.pattern(int(v.order[i])), p)
}

// rowFor returns the row holding pattern p (len(p) == v.pw), appending an
// empty row when no row holds it yet. Every way a view comes to be —
// Materialize, Apply, both decoders — adds rows through here, so pat,
// member and order cannot disagree.
func (v *View) rowFor(p []byte) int {
	i, ok := v.find(p)
	if ok {
		return int(v.order[i])
	}
	r := len(v.count)
	v.pat = append(v.pat, p...)
	v.count = append(v.count, 0)
	v.length = append(v.length, 0)
	for j := range v.member {
		if r%64 == 0 {
			v.member[j] = append(v.member[j], 0)
		}
		if p[j/8]&(1<<(j%8)) != 0 {
			v.member[j][r/64] |= 1 << (r % 64)
		}
	}
	v.order = slices.Insert(v.order, i, int32(r))
	return r
}

// index builds the lookups a view opened from a format-v3 file does not
// store: the membership bitsets over its rows and the rows in pattern
// order. Patterns are not validated here; a duplicate or stray bit fails
// the view's first-use check.
func (v *View) index() {
	rows := len(v.count)
	for j := range v.member {
		v.member[j] = make([]uint64, (rows+63)/64)
	}
	v.order = make([]int32, rows)
	for r := range rows {
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
// a format-v3 file, its slab's checksum and the table's shape and
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

// own copies a view whose columns alias a read-only file mapping onto
// the heap, so Apply and Remove can write them; the caller has checked
// the view.
func (v *View) own() {
	if v.file == nil || v.file.slab == nil {
		return
	}
	v.pat = slices.Clone(v.pat)
	v.count, v.length = slices.Clone(v.count), slices.Clone(v.length)
	for j, c := range v.cols {
		v.cols[j] = wordCol{Rows: slices.Clone(c.Rows), DF: slices.Clone(c.DF), TC: slices.Clone(c.TC)}
	}
	v.file.slab = nil
}

// bump adds to row r's count and length, keeping live in step as the row
// becomes or stops being a group.
func (v *View) bump(r int, dCount, dLen int64) {
	if v.count[r] == 0 {
		v.live++
	}
	v.count[r] += dCount
	v.length[r] += dLen
	if v.count[r] == 0 {
		v.live--
	}
}

// get returns the column's df and tc at row r, zero when it has no entry.
func (c *wordCol) get(r uint32) (df, tc int64) {
	if i, ok := slices.BinarySearch(c.Rows, r); ok {
		return c.DF[i], c.TC[i]
	}
	return 0, 0
}

// add folds (dDF, dTC) into the entry at row r, inserting the entry when
// the row has none and dropping it when its df falls to zero, so a stored
// entry always has df ≥ 1.
func (c *wordCol) add(r uint32, dDF, dTC int64) {
	i, ok := slices.BinarySearch(c.Rows, r)
	if !ok {
		c.Rows = slices.Insert(c.Rows, i, r)
		c.DF = slices.Insert(c.DF, i, dDF)
		c.TC = slices.Insert(c.TC, i, dTC)
		return
	}
	c.DF[i] += dDF
	c.TC[i] += dTC
	if c.DF[i] <= 0 {
		c.drop(i)
	}
}

func (c *wordCol) drop(i int) {
	c.Rows = slices.Delete(c.Rows, i, i+1)
	c.DF = slices.Delete(c.DF, i, i+1)
	c.TC = slices.Delete(c.TC, i, i+1)
}

// K returns the view's keyword columns, sorted. Callers must not modify
// the returned slice.
func (v *View) K() []string { return v.k }

// Size returns ViewSize(V_K): the number of non-empty groups.
func (v *View) Size() int { return v.live }

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
	rows := len(v.count)
	sel := make([]uint64, (rows+63)/64)
	for i := range sel {
		sel[i] = ^uint64(0)
	}
	if rows%64 != 0 {
		sel[len(sel)-1] = 1<<(rows%64) - 1
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
	for i, w := range sel {
		for ; w != 0; w &= w - 1 {
			r := i<<6 | bits.TrailingZeros64(w)
			res.Count += v.count[r]
			res.Len += v.length[r]
		}
	}
	for _, w := range words {
		j, ok := v.wordID[w]
		if !ok {
			continue
		}
		if _, dup := res.DF[w]; dup {
			continue
		}
		c := &v.cols[j]
		var df, tc int64
		for i, r := range c.Rows {
			if sel[r>>6]&(1<<(r&63)) != 0 {
				df += c.DF[i]
				tc += c.TC[i]
			}
		}
		res.DF[w], res.TC[w] = df, tc
	}
	if st != nil {
		st.ViewGroupsScanned += int64(v.live)
	}
	return res, nil
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
	b := int64(v.live) * int64(v.pw+16)
	for i := range v.cols {
		b += int64(len(v.cols[i].Rows)) * 12
	}
	return b
}

// String implements fmt.Stringer.
func (v *View) String() string {
	return fmt.Sprintf("View{|K|=%d, size=%d}", len(v.k), v.Size())
}
