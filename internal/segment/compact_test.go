package segment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csrank/internal/core"
	"csrank/internal/index"
	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/shard"
	"csrank/internal/snapshot"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// liveCorpus returns n test documents of the shared vocabulary.
func liveCorpus(seed int64, n int) []index.Document {
	rng := rand.New(rand.NewSource(seed))
	mesh, words := vocab()
	docs := make([]index.Document, n)
	for i := range docs {
		docs[i] = testDoc(rng, i, mesh, words)
	}
	return docs
}

func addAll(t *testing.T, ing *Ingester, docs []index.Document, first int) {
	t.Helper()
	for i, d := range docs {
		id, err := ing.Add(d)
		if err != nil {
			t.Fatalf("add %d: %v", first+i, err)
		}
		if id != first+i {
			t.Fatalf("document %d assigned docID %d", first+i, id)
		}
	}
}

// TestCompactionRefusesCorruptBlock: a flipped payload byte in shard 0's
// generation-0 file fails the compaction with a typed
// *postings.BlockCorruptError — the merge checks every block it reads —
// instead of rewriting the block's empty quarantine stand-in into a
// CRC-valid generation 1. Generation 0 stays served and on disk, and
// the drained documents stay pending and searchable.
func TestCompactionRefusesCorruptBlock(t *testing.T) {
	docs := liveCorpus(3, 50)
	dir := t.TempDir()
	buildLiveDir(t, dir, docs[:40], 2, 8)
	path := filepath.Join(shard.ShardDir(dir, 0), shard.IndexName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := snapshot.OpenPaged(data)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := pf.Section("postings")
	if !ok {
		t.Fatal("generation 0 has no postings section")
	}
	payload[0] ^= 0x01 // aliases data: the first block's first byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ing, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over a corrupt block (payloads are checked lazily): %v", err)
	}
	defer ing.Close()
	addAll(t, ing, docs[40:], 40)
	err = ing.Compact()
	var bce *postings.BlockCorruptError
	if !errors.As(err, &bce) {
		t.Fatalf("compaction over a corrupt block returned %v, want a *postings.BlockCorruptError", err)
	}
	if !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("compaction error %q does not name the shard", err)
	}
	if got := ing.CompactErr(); got != err {
		t.Fatalf("CompactErr = %v, want the compaction's error", got)
	}
	if gens := ing.Cluster().Generations(); gens[0] != 0 || gens[1] != 0 {
		t.Fatalf("generations %v after a failed compaction, want [0 0]", gens)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("generation 0 left the disk: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(filepath.Join(shard.ShardDir(dir, i), shard.IndexName(1))); !os.IsNotExist(err) {
			t.Fatalf("shard %d: a failed compaction left generation 1 (stat: %v)", i, err)
		}
	}
	if p := ing.Pending(); p != 10 {
		t.Fatalf("%d documents pending after a failed compaction, want 10", p)
	}
	for _, id := range []int{41, 49} {
		if hits := searchTerm(t, ing, fmt.Sprintf("uniq%04d", id), 5); len(hits) != 1 || hits[0].Global != uint32(id) {
			t.Fatalf("pending document %d: hits %v", id, hits)
		}
	}
}

// liveQueries are contextual and plain queries over the shared
// vocabulary.
func liveQueries() []query.Query {
	mesh, words := vocab()
	var qs []query.Query
	for i, w := range words {
		qs = append(qs, query.Query{Keywords: []string{w, "common"}})
		qs = append(qs, query.Query{Keywords: []string{w}, Context: []string{mesh[i%len(mesh)]}})
	}
	return qs
}

// TestCompactedShardsServeMappedAcrossRestart: after three compactions
// every shard serves the file its last compaction wrote — a mapped
// index, as a restarted server opens — and closing and reopening the
// directory gives the same top 20, docIDs and score bits, under each of
// the five scorers. The reopened ingester and a read-only shard.Open of
// the same directory both serve generation 3 and answer bit-identically.
func TestCompactedShardsServeMappedAcrossRestart(t *testing.T) {
	docs := liveCorpus(5, 90)
	for _, name := range []string{"pivoted-tfidf", "bm25", "dirichlet-lm", "cosine-tfidf", "jelinek-mercer-lm"} {
		sc, ok := ranking.New(name)
		if !ok {
			t.Fatalf("no scorer %q", name)
		}
		opts := Options{Core: core.Options{Scorer: sc, Pruning: true}}
		dir := t.TempDir()
		buildLiveDir(t, dir, docs[:60], 2, 8)
		ing, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			lo := 60 + 10*round
			addAll(t, ing, docs[lo:lo+10], lo)
			if err := ing.Compact(); err != nil {
				t.Fatalf("%s: compaction %d: %v", name, round+1, err)
			}
		}
		v := ing.Acquire()
		for i, sl := range v.Slices {
			if v := sl.Eng.Index().FormatVersion(); v != index.MappedFormatVersion {
				t.Fatalf("%s: shard %d serves an index of format %d after 3 compactions", name, i, v)
			}
		}
		v.Release()
		before := make([][]core.SliceHit, 0)
		for _, q := range liveQueries() {
			before = append(before, searchQuery(t, ing, q))
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		ing, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		readOnly, err := shard.Open(dir, opts.Core)
		if err != nil {
			t.Fatalf("%s: read-only open: %v", name, err)
		}
		for what, gens := range map[string][]uint64{"reopened": ing.Cluster().Generations(), "read-only": readOnly.Generations()} {
			if !slices.Equal(gens, []uint64{3, 3}) {
				t.Fatalf("%s: %s generations %v, want [3 3]", name, what, gens)
			}
		}
		for qi, q := range liveQueries() {
			got := searchQuery(t, ing, q)
			ro, _, err := readOnly.Search(context.Background(), q, 20)
			if err != nil {
				t.Fatalf("%s q=%v: read-only search: %v", name, q, err)
			}
			if len(got) != len(before[qi]) || len(ro) != len(got) {
				t.Fatalf("%s q=%v: %d hits after reopen, %d read-only, %d before", name, q, len(got), len(ro), len(before[qi]))
			}
			for r := range got {
				g, w, o := got[r], before[qi][r], ro[r]
				if g.Global != w.Global || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Fatalf("%s q=%v rank %d: (%d, %v) after reopen, (%d, %v) before", name, q, r, g.Global, g.Score, w.Global, w.Score)
				}
				if o.Global != g.Global || math.Float64bits(o.Score) != math.Float64bits(g.Score) {
					t.Fatalf("%s q=%v rank %d: (%d, %v) read-only, (%d, %v) reopened", name, q, r, o.Global, o.Score, g.Global, g.Score)
				}
			}
		}
		ing.Close()
	}
}

func searchQuery(t *testing.T, ing *Ingester, q query.Query) []core.SliceHit {
	t.Helper()
	hits, _, _, err := ing.Search(context.Background(), q, 20)
	if err != nil {
		t.Fatalf("search %v: %v", q, err)
	}
	return hits
}

// mappedFiles returns the /proc/self/maps lines that map a file under
// dir (one per mapping; a removed file's line ends "(deleted)").
func mappedFiles(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, dir) {
			out = append(out, line)
		}
	}
	return out
}

// meshCatalog materializes one view over every mesh term of the test
// vocabulary, tracking every word, so each contextual test query can use
// it.
func meshCatalog(t *testing.T) func(*index.Index) *views.Catalog {
	return func(ix *index.Index) *views.Catalog {
		mesh, words := vocab()
		v, err := views.Materialize(widetable.FromIndex(ix, words), mesh, words)
		if err != nil {
			t.Fatal(err)
		}
		return views.NewCatalog([]*views.View{v}, 1, 4096)
	}
}

// TestRetiredCatalogsUnmapped: every shard of a generation-0 directory
// serves a view catalog mapped from its views.gob. Closing a read-only
// cluster of those files unmaps every catalog; and once the first
// compaction retires generation 0 under concurrent queries — which hold
// their engines, catalogs included, through Acquire — no views.gob is
// mapped any more.
func TestRetiredCatalogsUnmapped(t *testing.T) {
	const nShards = 2
	docs := liveCorpus(9, 76)
	dir := t.TempDir()
	saveLiveDir(t, dir, docs[:60], nShards, 8, meshCatalog(t))
	catalogMaps := func() []string {
		var out []string
		for _, line := range mappedFiles(t, dir) {
			if strings.HasSuffix(line, "views.gob") || strings.HasSuffix(line, "views.gob (deleted)") {
				out = append(out, line)
			}
		}
		return out
	}

	c, err := shard.Open(dir, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := catalogMaps(); len(got) != nShards {
		t.Fatalf("read-only open maps %d catalogs, want %d:\n%s", len(got), nShards, strings.Join(got, "\n"))
	}
	c.Close()
	if got := catalogMaps(); len(got) != 0 {
		t.Fatalf("closed read-only cluster still maps:\n%s", strings.Join(got, "\n"))
	}

	ing, err := Open(dir, Options{RefreshEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries, viewPlans atomic.Int64
	errs := make(chan error, 8)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qs := liveQueries()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := ing.Acquire()
				_, sum, err := ing.Cluster().SearchSlices(context.Background(), v.Slices, qs[(i+w)%len(qs)], 10, "")
				v.Release()
				if err == nil && (sum.Agg.Degraded || len(sum.Failed) > 0) {
					err = errors.New("degraded: " + sum.Agg.DegradedReason)
				}
				if err != nil {
					errs <- err
					return
				}
				if sum.Agg.UsedView {
					viewPlans.Add(1)
				}
				queries.Add(1)
			}
		}(w)
	}
	addAll(t, ing, docs[60:], 60)
	for queries.Load() < 50 && len(errs) == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := ing.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query around the compaction: %v", err)
	}
	if viewPlans.Load() == 0 {
		t.Fatal("no query used a view before the compaction")
	}
	if got := catalogMaps(); len(got) != 0 {
		t.Fatalf("generation 0 retired, but its catalogs are still mapped:\n%s", strings.Join(got, "\n"))
	}
}

// TestRetiredGenerationsUnmapped: queries run without a fault while six
// compactions retire generation after generation — each query holds its
// view's engines, stored fields included, so no retired mapping closes
// under it — and once idle the process maps exactly one file per shard,
// the current generation's.
func TestRetiredGenerationsUnmapped(t *testing.T) {
	const nShards, rounds = 2, 6
	docs := liveCorpus(9, 60+rounds*8)
	dir := t.TempDir()
	buildLiveDir(t, dir, docs[:60], nShards, 8)
	ing, err := Open(dir, Options{RefreshEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries atomic.Int64
	errs := make(chan error, 8)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qs := liveQueries()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[(i+w)%len(qs)]
				v := ing.Acquire()
				hits, sum, err := ing.Cluster().SearchSlices(context.Background(), v.Slices, q, 10, "")
				if err == nil && (sum.Agg.Degraded || len(sum.Failed) > 0) {
					err = errors.New("degraded: " + sum.Agg.DegradedReason)
				}
				for _, h := range hits {
					if v.Slices[h.Slice].Eng.Index().StoredField(h.Local, "title") == "" {
						err = errors.New("hit without a stored title")
					}
				}
				v.Release()
				if err != nil {
					errs <- err
					return
				}
				queries.Add(1)
			}
		}(w)
	}
	for r := 0; r < rounds; r++ {
		lo := 60 + 8*r
		addAll(t, ing, docs[lo:lo+8], lo)
		// Let queries load the current generation's view before it is
		// retired.
		for seen := queries.Load(); queries.Load() < seen+20 && len(errs) == 0; {
			time.Sleep(time.Millisecond)
		}
		if err := ing.Compact(); err != nil {
			t.Fatalf("compaction %d: %v", r+1, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query during compactions: %v", err)
	}
	if queries.Load() == 0 {
		t.Fatal("no query ran during the compactions")
	}

	lines := mappedFiles(t, dir)
	if len(lines) != nShards {
		t.Fatalf("%d mappings of the data directory once idle, want %d:\n%s", len(lines), nShards, strings.Join(lines, "\n"))
	}
	for _, line := range lines {
		if strings.HasSuffix(line, "(deleted)") || !strings.HasSuffix(line, shard.IndexName(rounds)) {
			t.Fatalf("mapping %q is not a generation-%d index file", line, rounds)
		}
	}
}

// TestCloseUnmapsLiveDir: closing an ingester releases every engine it
// serves, so no file of the data dir stays mapped — neither a shard's
// index and catalog at generation 0 nor a compacted generation — and
// Acquire on the closed ingester returns nil instead of retrying.
func TestCloseUnmapsLiveDir(t *testing.T) {
	const nShards = 2
	docs := liveCorpus(9, 76)
	for _, compact := range []bool{false, true} {
		dir := t.TempDir()
		saveLiveDir(t, dir, docs[:60], nShards, 8, meshCatalog(t))
		ing, err := Open(dir, Options{RefreshEvery: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		addAll(t, ing, docs[60:], 60)
		if compact {
			if err := ing.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		searchQuery(t, ing, liveQueries()[0])
		if got := mappedFiles(t, dir); len(got) < nShards {
			t.Fatalf("compact=%v: an open ingester maps %d files of its dir:\n%s", compact, len(got), strings.Join(got, "\n"))
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
		if got := mappedFiles(t, dir); len(got) != 0 {
			t.Fatalf("compact=%v: a closed ingester still maps:\n%s", compact, strings.Join(got, "\n"))
		}
		if v := ing.Acquire(); v != nil {
			t.Fatalf("compact=%v: Acquire on a closed ingester returned a view", compact)
		}
		if _, _, _, err := ing.Search(context.Background(), liveQueries()[0], 10); err == nil {
			t.Fatalf("compact=%v: Search on a closed ingester succeeded", compact)
		}
	}
}
