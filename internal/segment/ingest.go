package segment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csrank/internal/core"
	"csrank/internal/fsx"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/shard"
)

// errClosed is what an ingester's operations return after Close.
var errClosed = errors.New("segment: ingester is closed")

// walName returns the ingestion log for a generation: the documents
// acknowledged after that generation's snapshot was committed.
func walName(gen uint64) string { return fmt.Sprintf("ingest-%06d.wal", gen) }

// LoggedDocs counts the acknowledged documents generation gen's
// ingestion log in dir holds: the documents a read-only opener
// (shard.Open) does not serve, since only Open replays them. It reads
// the record framing — length and checksum — and decodes no payload; a
// torn final record was never acknowledged and is not counted, and a
// directory without the log holds none.
func LoggedDocs(fs fsx.FS, dir string, gen uint64) (int, error) {
	n := 0
	_, err := replayRaw(fs, filepath.Join(dir, walName(gen)), func([]byte) error {
		n++
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	return n, err
}

// Options configures an Ingester.
type Options struct {
	// FS is the filesystem everything durable goes through (fsx.OS when
	// nil); fault-injection tests substitute a crashing one.
	FS fsx.FS
	// Core configures the engines built for shards and the mutable
	// segment.
	Core core.Options
	// RefreshEvery is the interval at which the mutable segment is
	// re-published for search. Zero refreshes synchronously inside every
	// Add — an acknowledged document is searchable when Add returns.
	RefreshEvery time.Duration
	// CompactThreshold triggers a background compaction when the segment
	// holds at least this many documents. Zero means compaction runs only
	// when Compact is called.
	CompactThreshold int
}

// View is one consistent snapshot of the searchable collection: the
// shard slices plus (when the segment is non-empty) the mutable-segment
// slice. Queries load it once and run entirely against it, so a
// concurrent compaction can never double-count a document — a view
// holds each document in exactly one slice by construction, and views
// are replaced whole.
//
// A query holds the view's engines through Acquire and Release: a
// compaction retires the engines of the generation it replaces, and
// the last release of a retired engine closes its index and unmaps its
// file, so a view's engines may be read only between the two.
type View struct {
	// Slices are the disjoint document slices: the cluster's immutable
	// shards in order, then (at most one) the mutable segment.
	Slices []core.Slice
	// Seq is a monotonic content sequence number: it advances exactly
	// when the searchable content changes — an acknowledged document
	// became visible, or a compaction committed a new generation — and
	// stays put across periodic refresh ticks that republish identical
	// content. Two views with equal Seq rank bit-identically (same
	// documents, same generation, deterministic index build), which is
	// what lets serving-layer result caches use Seq as their live-path
	// invalidation tag.
	Seq uint64
}

// Ingester owns live ingestion for one cluster data directory: the
// WAL-durable mutable segment, the searchable view over shards +
// segment, and the compactor that drains the segment into the next
// index generation. All mutation is serialized on one mutex; searches
// are lock-free view loads.
type Ingester struct {
	fs      fsx.FS
	dir     string
	cluster *shard.Cluster
	opts    Options

	mu         sync.Mutex
	seg        *Segment
	gen        uint64
	compacting bool
	compactErr error
	// closed is set (under mu) by Close; Acquire reads it without mu.
	closed atomic.Bool

	view atomic.Pointer[View]
	// retired holds the engines of the generation the last compaction
	// replaced (under mu) until a view without them is published; their
	// owner references are released then.
	retired []*core.Engine
	// viewSeq/lastGen/lastCount implement View.Seq (all under mu): the
	// sequence advances when (generation, acknowledged-doc count) moves.
	viewSeq   uint64
	lastGen   uint64
	lastCount int

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open opens a cluster data directory for live ingestion and recovers
// its mutable segment: open the cluster at its committed generation
// (shard.OpenFS), replay that generation's ingestion WAL into the
// segment (truncating a torn tail), and sweep any orphan files a crash
// mid-compaction left behind. Every document whose Add was acknowledged
// before the crash is afterwards searchable exactly once.
func Open(dir string, o Options) (*Ingester, error) {
	fs := o.FS
	if fs == nil {
		fs = fsx.OS
	}
	if _, err := fs.Stat(filepath.Join(dir, shard.ManifestName)); err != nil {
		return nil, fmt.Errorf("segment: live ingestion requires a cluster data directory (cluster.json, as csbuild and Save write): %w", err)
	}
	cluster, err := shard.OpenFS(fs, dir, o.Core)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	_, gen := cluster.Engine(0)
	seg, err := OpenSegment(fs, filepath.Join(dir, walName(gen)))
	if err != nil {
		return nil, err
	}
	ing := &Ingester{
		fs:      fs,
		dir:     dir,
		cluster: cluster,
		opts:    o,
		seg:     seg,
		gen:     gen,
		stop:    make(chan struct{}),
	}
	ing.removeOrphans()
	ing.mu.Lock()
	err = ing.refreshLocked()
	ing.mu.Unlock()
	if err != nil {
		seg.Close()
		return nil, err
	}
	if o.RefreshEvery > 0 {
		ing.wg.Add(1)
		go ing.refreshLoop()
	}
	return ing, nil
}

// Cluster returns the underlying shard cluster (for generation and
// manifest introspection).
func (ing *Ingester) Cluster() *shard.Cluster { return ing.cluster }

// Pending returns how many acknowledged documents await compaction.
func (ing *Ingester) Pending() int {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.seg.Len()
}

// CompactErr returns the most recent background-compaction failure (nil
// after a success). Compaction failures never lose acknowledged
// documents — the segment and its WAL are untouched until the commit
// point — so they are reported, not fatal.
func (ing *Ingester) CompactErr() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.compactErr
}

// View returns the current searchable view without a reference on its
// engines: they stay readable only while no compaction runs. A caller
// that may overlap one uses Acquire.
func (ing *Ingester) View() *View { return ing.view.Load() }

// Acquire returns the current view with a reference held on each of
// its engines, so no compaction closes them until Release. A view whose
// retired engines are already closed is never returned: Acquire then
// loads the view that replaced it. Once the ingester is closed, and its
// engines with it, Acquire returns nil.
func (ing *Ingester) Acquire() *View {
	for {
		if v := ing.view.Load(); v.acquire() {
			return v
		}
		if ing.closed.Load() {
			return nil
		}
	}
}

// acquire takes a reference on every engine of v, or on none when one
// of them is already closed.
func (v *View) acquire() bool {
	for i, sl := range v.Slices {
		if !sl.Eng.Acquire() {
			for _, held := range v.Slices[:i] {
				held.Eng.Release()
			}
			return false
		}
	}
	return true
}

// Release drops the references Acquire took on v's engines.
func (v *View) Release() {
	for _, sl := range v.Slices {
		sl.Eng.Release()
	}
}

// Search evaluates q over the current view — shards plus mutable
// segment, rank-safely merged through the cluster's admitted
// scatter-gather (policy, breakers and chaos seam included; the segment
// rides along as the breaker-less extra slice) — and returns the hits,
// the execution summary, and the Seq of the view the query ran on. The
// query holds the view for its duration only, so a caller that reads
// the view's engines afterwards (stored fields) runs its query under
// its own Acquire instead.
func (ing *Ingester) Search(ctx context.Context, q query.Query, k int) ([]core.SliceHit, shard.Summary, uint64, error) {
	v := ing.Acquire()
	if v == nil {
		return nil, shard.Summary{}, 0, errClosed
	}
	defer v.Release()
	hits, sum, err := ing.cluster.SearchSlices(ctx, v.Slices, q, k, "")
	return hits, sum, v.Seq, err
}

// Add durably logs the document — fsynced before return — and assigns
// it the next global docID. With RefreshEvery == 0 the document is
// searchable when Add returns; otherwise within one refresh interval.
// An error means the document was NOT acknowledged and may not survive
// a crash.
func (ing *Ingester) Add(d index.Document) (int, error) {
	ing.mu.Lock()
	if ing.closed.Load() {
		ing.mu.Unlock()
		return 0, errClosed
	}
	pos, err := ing.seg.Add(d)
	if err != nil {
		ing.mu.Unlock()
		return 0, err
	}
	id := ing.cluster.NumDocs() + pos
	pending := ing.seg.Len()
	if ing.opts.RefreshEvery == 0 {
		if err := ing.refreshLocked(); err != nil {
			ing.mu.Unlock()
			return id, err
		}
	}
	trigger := ing.opts.CompactThreshold > 0 && pending >= ing.opts.CompactThreshold && !ing.compacting
	if trigger {
		ing.compacting = true
		ing.wg.Add(1)
	}
	ing.mu.Unlock()
	if trigger {
		go func() {
			defer ing.wg.Done()
			err := ing.doCompact()
			ing.mu.Lock()
			ing.compacting = false
			ing.compactErr = err
			ing.mu.Unlock()
		}()
	}
	return id, nil
}

// Refresh republishes the searchable view: rebuild the mutable
// segment's in-memory index over the documents acknowledged so far and
// swap it in alongside the current shard slices, atomically.
func (ing *Ingester) Refresh() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.refreshLocked()
}

func (ing *Ingester) refreshLocked() error {
	total := ing.cluster.NumDocs()
	docs := ing.seg.Docs()
	docs = docs[:len(docs):len(docs)]
	base, _ := ing.cluster.Slices()
	slices := make([]core.Slice, 0, len(base)+1)
	slices = append(slices, base...)
	if len(docs) > 0 {
		shape := base[0].Eng.Index() // the segment indexes as the shards do
		segIx, err := index.BuildFrom(shape.Schema(), shape.SegmentSize(), docs)
		if err != nil {
			return err
		}
		globals := make([]uint32, len(docs))
		for j := range globals {
			globals[j] = uint32(total + j)
		}
		slices = append(slices, core.Slice{Eng: core.New(segIx, nil, ing.opts.Core), Globals: globals})
	}
	newCount := total + len(docs)
	if ing.viewSeq == 0 || ing.gen != ing.lastGen || newCount != ing.lastCount {
		ing.viewSeq++
		ing.lastGen, ing.lastCount = ing.gen, newCount
	}
	ing.view.Store(&View{Slices: slices, Seq: ing.viewSeq})
	// No view loaded from now on holds a retired engine; each closes
	// once the views already holding it are released.
	for _, e := range ing.retired {
		e.Release()
	}
	ing.retired = nil
	return nil
}

func (ing *Ingester) refreshLoop() {
	defer ing.wg.Done()
	t := time.NewTicker(ing.opts.RefreshEvery)
	defer t.Stop()
	for {
		select {
		case <-ing.stop:
			return
		case <-t.C:
			ing.mu.Lock()
			if !ing.closed.Load() {
				ing.refreshLocked() // a failed refresh retries next tick
			}
			ing.mu.Unlock()
		}
	}
}

// Compact synchronously drains the mutable segment into the next index
// generation: per shard, merge the serving index with the drained
// documents straight into the new generation's file (score bounds
// rebuilt over the merged corpus) and open that file, commit the
// generation by atomically rewriting live.json, swap the opened engines
// in, and retire the drained prefix from the WAL. A crash at any point
// recovers to either the old generation (old WAL intact) or the new one
// (drained documents in the indexes, the rest in the new WAL) — never
// to a state missing an acknowledged document. A corrupt block in the
// serving generation fails the compaction (a *postings.BlockCorruptError
// in the chain): that generation stays served and on disk.
func (ing *Ingester) Compact() error {
	ing.mu.Lock()
	if ing.compacting {
		ing.mu.Unlock()
		return fmt.Errorf("segment: compaction already in progress")
	}
	ing.compacting = true
	ing.mu.Unlock()
	err := ing.doCompact()
	ing.mu.Lock()
	ing.compacting = false
	ing.compactErr = err
	ing.mu.Unlock()
	return err
}

func (ing *Ingester) doCompact() error {
	// Write phase — off the lock, so Add keeps running. The drained
	// prefix is frozen (the segment is append-only); documents arriving
	// during the write stay in the segment past the commit. The base
	// engines stay open throughout: only a compaction retires engines,
	// and compactions do not overlap.
	ing.mu.Lock()
	docs := ing.seg.Docs()
	n := len(docs)
	if n == 0 {
		ing.mu.Unlock()
		return nil
	}
	docs = docs[:n:n]
	base, _ := ing.cluster.Slices()
	total := ing.cluster.NumDocs()
	gen := ing.gen
	ing.mu.Unlock()

	newGen := gen + 1
	nShards := len(base)
	newTotal := total + n
	newGlobals := shard.GlobalMaps(newTotal, nShards)
	parts := make([][]index.Document, nShards)
	for j, d := range docs {
		s := shard.ShardOf(uint32(total+j), nShards)
		parts[s] = append(parts[s], d)
	}
	newEngines := make([]*core.Engine, 0, nShards)
	swapped := false
	defer func() {
		if !swapped {
			// Never served: close the files this attempt opened.
			for _, e := range newEngines {
				e.Release()
			}
		}
	}()
	for i := 0; i < nShards; i++ {
		eng, err := ing.writeGeneration(i, newGen, base[i].Eng.Index(), parts[i])
		if err != nil {
			return err
		}
		newEngines = append(newEngines, eng)
	}

	// Commit phase — under the lock. Order is the crash-safety proof:
	// (1) the new generation's WAL is written and fsynced with every
	// document acknowledged after the drained prefix; (2) live.json
	// flips atomically — THE commit point; (3) the grown engines swap
	// in; (4) the old generation's files are retired (best-effort;
	// recovery sweeps orphans). Before (2) recovery sees the old
	// generation and the old WAL holds every acknowledged document;
	// after (2) the new indexes and new WAL together hold every one,
	// each exactly once. The old engines are retired with their files:
	// the view refreshLocked publishes no longer holds them, and the
	// last query still holding one closes it (its mapping outlives the
	// removed file).
	ing.mu.Lock()
	defer ing.mu.Unlock()
	rest := ing.seg.Docs()[n:]
	seg2, err := CreateSegment(ing.fs, filepath.Join(ing.dir, walName(newGen)))
	if err != nil {
		return err
	}
	for _, d := range rest {
		if _, err := seg2.Add(d); err != nil {
			seg2.Close()
			return err
		}
	}
	if err := shard.CommitLive(ing.fs, ing.dir, newGen, newTotal); err != nil {
		seg2.Close()
		return err
	}
	swapped = true
	for i := range newEngines {
		old, _, err := ing.cluster.SwapExtend(i, newEngines[i], newGlobals[i], newGen)
		if err != nil {
			// The commit is already durable; a swap rejection here is an
			// invariant bug, not a recoverable condition.
			return fmt.Errorf("segment: post-commit swap of shard %d: %w", i, err)
		}
		ing.retired = append(ing.retired, old)
	}
	old := ing.seg
	ing.seg = seg2
	ing.gen = newGen
	old.Close()
	ing.fs.Remove(old.Path())
	for i := 0; i < nShards; i++ {
		ing.fs.Remove(filepath.Join(shard.ShardDir(ing.dir, i), shard.IndexName(gen)))
	}
	return ing.refreshLocked()
}

// writeGeneration merges shard i's serving index base with docs, its
// share of the drained documents, into generation gen's file and opens
// the file it wrote, which is what the shard serves once gen commits.
func (ing *Ingester) writeGeneration(i int, gen uint64, base *index.Index, docs []index.Document) (*core.Engine, error) {
	sd := shard.ShardDir(ing.dir, i)
	if err := index.SaveExtendedFS(ing.fs, filepath.Join(sd, shard.IndexName(gen)), base, docs); err != nil {
		return nil, fmt.Errorf("segment: write shard %d gen %d: %w", i, gen, err)
	}
	ix, err := shard.OpenGeneration(ing.fs, sd, gen)
	if err != nil {
		return nil, fmt.Errorf("segment: open shard %d gen %d: %w", i, gen, err)
	}
	return core.New(ix, nil, ing.opts.Core), nil
}

// removeOrphans sweeps files a crash mid-compaction can leave behind:
// non-current ingestion WALs, non-current index generations, and
// write-temp files. Removal is best-effort — an orphan is re-swept on
// the next open.
func (ing *Ingester) removeOrphans() {
	entries, err := ing.fs.ReadDir(ing.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() && strings.HasPrefix(name, "shard-"):
			sub, err := ing.fs.ReadDir(filepath.Join(ing.dir, name))
			if err != nil {
				continue
			}
			for _, f := range sub {
				fn := f.Name()
				if fn == shard.IndexName(ing.gen) {
					continue
				}
				if strings.HasPrefix(fn, "index") && (strings.HasSuffix(fn, ".gob") || strings.HasSuffix(fn, ".tmp")) {
					ing.fs.Remove(filepath.Join(ing.dir, name, fn))
				}
			}
		case name == walName(ing.gen):
		case strings.HasPrefix(name, "ingest-") && strings.HasSuffix(name, ".wal"):
			ing.fs.Remove(filepath.Join(ing.dir, name))
		case strings.HasSuffix(name, ".tmp"):
			ing.fs.Remove(filepath.Join(ing.dir, name))
		}
	}
}

// Close stops background refresh/compaction, releases the owner
// references on the serving engines — each closes, unmapping its index
// and view catalog, once no acquired view still holds it — and releases
// the WAL handle. Acknowledged documents are durable regardless.
func (ing *Ingester) Close() error {
	ing.mu.Lock()
	if ing.closed.Load() {
		ing.mu.Unlock()
		return nil
	}
	ing.closed.Store(true)
	ing.mu.Unlock()
	close(ing.stop)
	ing.wg.Wait()
	ing.mu.Lock()
	for _, e := range ing.retired {
		e.Release()
	}
	ing.retired = nil
	ing.mu.Unlock()
	ing.cluster.Close()
	return ing.seg.Close()
}
