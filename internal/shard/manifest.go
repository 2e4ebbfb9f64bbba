package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"csrank/internal/core"
	"csrank/internal/fsx"
	"csrank/internal/index"
	"csrank/internal/views"
)

// ManifestName is the cluster manifest file at the root of a data
// directory.
const ManifestName = "cluster.json"

// manifestVersion is the manifest schema version this package writes.
const manifestVersion = 1

// Manifest describes a persisted cluster: shard-%03d subdirectories
// each holding an ordinary engine data directory (index.gob in any
// supported format, optional views.gob). Because the partition function
// is pure, the manifest needs only (TotalDocs, Shards, Partition) to
// reconstruct every local→global docID map — live.json's TotalDocs
// replaces the manifest's once the directory has compacted — and Open
// checks each shard's document count against its map, so a shard
// directory that drifted from its partition fails to open. ShardDocs
// records the generation-0 counts redundantly.
type Manifest struct {
	Version   int    `json:"version"`
	Shards    int    `json:"shards"`
	TotalDocs int    `json:"total_docs"`
	Partition string `json:"partition"`
	ShardDocs []int  `json:"shard_docs"`
}

// Validate checks internal consistency.
func (m Manifest) Validate() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("shard: manifest version %d, this build reads %d", m.Version, manifestVersion)
	}
	if m.Shards < 1 {
		return fmt.Errorf("shard: manifest declares %d shards", m.Shards)
	}
	if m.Partition != PartitionFNV {
		return fmt.Errorf("shard: unknown partition function %q (this build knows %q)", m.Partition, PartitionFNV)
	}
	if len(m.ShardDocs) != m.Shards {
		return fmt.Errorf("shard: manifest lists %d shard sizes for %d shards", len(m.ShardDocs), m.Shards)
	}
	total := 0
	for _, n := range m.ShardDocs {
		total += n
	}
	if total != m.TotalDocs {
		return fmt.Errorf("shard: shard sizes sum to %d, manifest declares %d documents", total, m.TotalDocs)
	}
	return nil
}

// NewManifest builds the manifest for total documents over n shards
// under the built-in partitioner.
func NewManifest(total, n int) Manifest {
	m := Manifest{Version: manifestVersion, Shards: n, TotalDocs: total, Partition: PartitionFNV}
	for _, g := range GlobalMaps(total, n) {
		m.ShardDocs = append(m.ShardDocs, len(g))
	}
	return m
}

// ShardDir returns shard i's subdirectory under a cluster data dir.
func ShardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// SaveManifest writes the manifest atomically (temp + fsync + rename).
func SaveManifest(dir string, m Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	return fsx.WriteFileAtomic(fsx.OS, filepath.Join(dir, ManifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// LoadManifest reads and validates dir's cluster manifest.
func LoadManifest(fsys fsx.FS, dir string) (Manifest, error) {
	data, err := fsx.ReadFile(fsys, filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("shard: parse %s: %w", ManifestName, err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// LiveName is the ingestion commit-point file inside a cluster data
// directory: it names the current index generation and committed
// document count. It is rewritten atomically exactly once per
// compaction, making "which generation is live" a single-file decision
// every open can answer.
const LiveName = "live.json"

type liveState struct {
	Version   int    `json:"version"`
	Gen       uint64 `json:"gen"`
	TotalDocs int    `json:"total_docs"`
}

// readLive returns dir's committed generation: live.json's, or
// generation 0 over the manifest's documents for a directory that never
// compacted.
func readLive(fsys fsx.FS, dir string, m Manifest) (liveState, error) {
	st := liveState{Version: 1, Gen: 0, TotalDocs: m.TotalDocs}
	data, err := fsx.ReadFile(fsys, filepath.Join(dir, LiveName))
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("shard: parse %s: %w", LiveName, err)
	}
	if st.Version != 1 {
		return st, fmt.Errorf("shard: %s version %d, this build reads 1", LiveName, st.Version)
	}
	if st.TotalDocs < m.TotalDocs {
		return st, fmt.Errorf("shard: %s declares %d documents, below the manifest's %d", LiveName, st.TotalDocs, m.TotalDocs)
	}
	return st, nil
}

// CommitLive atomically rewrites dir's live.json to name generation gen
// holding total documents: the commit point of a compaction.
func CommitLive(fsys fsx.FS, dir string, gen uint64, total int) error {
	return fsx.WriteFileAtomic(fsys, filepath.Join(dir, LiveName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(liveState{Version: 1, Gen: gen, TotalDocs: total})
	})
}

// IndexName returns a shard's index file for a generation. Generation 0
// is the file csbuild and Save write, so an uncompacted live directory
// stays openable by every existing tool.
func IndexName(gen uint64) string {
	if gen == 0 {
		return "index.gob"
	}
	return fmt.Sprintf("index.%06d.gob", gen)
}

// OpenGeneration opens generation gen's index file in a shard
// directory: a paged file maps with the default block-cache budget, a gob
// file an older build wrote decodes.
func OpenGeneration(fsys fsx.FS, shardDir string, gen uint64) (*index.Index, error) {
	return index.LoadFileFS(fsys, filepath.Join(shardDir, IndexName(gen)))
}

// Save persists the cluster under dir: one engine data directory per
// shard (shard-%03d/index.gob in the paged format v5, which Open maps
// lazily, plus views.gob) and the manifest. Only clusters whose docID
// maps match the built-in partitioner can be persisted — the manifest
// records no explicit maps, so anything else could not be reopened.
// Save reads the engines it snapshots without a reference, so it is for
// a cluster nothing retires engines of; a live cluster is saved from an
// acquired view through SaveSlices.
func (c *Cluster) Save(dir string) error {
	slices, _ := c.Slices()
	return SaveSlices(dir, slices)
}

// SaveSlices persists one slice per shard, in shard order, as Save
// persists a cluster. The caller keeps the slices' engines open
// throughout — a live view holds them through its Acquire — since a
// mapped index is read straight out of its mapping.
func SaveSlices(dir string, shards []core.Slice) error {
	total := 0
	for _, sl := range shards {
		total += len(sl.Globals)
	}
	m := NewManifest(total, len(shards))
	for i, g := range GlobalMaps(total, len(shards)) {
		if !slices.Equal(g, shards[i].Globals) {
			return fmt.Errorf("shard: cluster partition is not %s; cannot persist", PartitionFNV)
		}
	}
	for i, sl := range shards {
		sd := ShardDir(dir, i)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return err
		}
		if err := sl.Eng.Index().SaveMapped(filepath.Join(sd, IndexName(0))); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if cat := sl.Eng.Catalog(); cat != nil {
			if err := cat.SaveFile(filepath.Join(sd, "views.gob")); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	return SaveManifest(dir, m)
}

// Open loads a persisted cluster at its committed generation: the
// manifest, live.json when the directory has compacted, then every
// shard's index of that generation (v4 maps lazily, so N shards do not
// multiply resident heap; gob indexes from older builds still load,
// fully decoded) behind an engine built with opts, serving at that
// generation. A shard whose document count disagrees with the partition
// fails the open — serving a drifted partition would silently corrupt
// rankings. A shard whose views.gob does not open serves without views
// (CatalogErr says why). Open only reads: documents still in a live
// directory's ingestion log are not served (segment.Open replays them).
//
// A directory without a manifest that holds an index.gob — the
// single-engine layout older builds wrote — opens as a one-shard cluster
// rooted at dir, so Save converts it to the cluster layout.
func Open(dir string, opts core.Options) (*Cluster, error) { return OpenFS(fsx.OS, dir, opts) }

// OpenFS is Open against an explicit filesystem.
func OpenFS(fsys fsx.FS, dir string, opts core.Options) (*Cluster, error) {
	m, err := LoadManifest(fsys, dir)
	if errors.Is(err, os.ErrNotExist) {
		if _, serr := fsys.Stat(filepath.Join(dir, IndexName(0))); serr == nil {
			eng, catErr, err := openEngine(fsys, dir, 0, opts)
			if err != nil {
				return nil, err
			}
			c, err := NewCluster([]*core.Engine{eng}, GlobalMaps(eng.Index().NumDocs(), 1))
			if err != nil {
				eng.Release()
				return nil, err
			}
			c.catErrs = []error{catErr}
			return c, nil
		}
	}
	if err != nil {
		return nil, err
	}
	st, err := readLive(fsys, dir, m)
	if err != nil {
		return nil, err
	}
	globals := GlobalMaps(st.TotalDocs, m.Shards)
	engines := make([]*core.Engine, 0, m.Shards)
	catErrs := make([]error, m.Shards)
	// A failed open releases the engines it opened, unmapping their files.
	fail := func(err error) (*Cluster, error) {
		for _, eng := range engines {
			eng.Release()
		}
		return nil, err
	}
	for i := range m.Shards {
		eng, catErr, err := openEngine(fsys, ShardDir(dir, i), st.Gen, opts)
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", i, err))
		}
		engines, catErrs[i] = append(engines, eng), catErr
		if n := eng.Index().NumDocs(); n != len(globals[i]) {
			return fail(fmt.Errorf("shard %d: index holds %d documents, partition expects %d", i, n, len(globals[i])))
		}
	}
	c, err := newCluster(engines, globals, st.Gen)
	if err != nil {
		return fail(err)
	}
	c.catErrs = catErrs
	return c, nil
}

// openEngine loads generation gen of one engine data directory, and its
// views.gob only at generation 0: a catalog describes the corpus it was
// materialized over, compaction grows the corpus without rewriting it,
// and the exact straightforward plan beats a stale view answer. A
// views.gob that fails to open leaves the engine view-less and is
// returned as catErr (a missing one is no error); err is the index's.
func openEngine(fsys fsx.FS, dir string, gen uint64, opts core.Options) (eng *core.Engine, catErr, err error) {
	ix, err := OpenGeneration(fsys, dir, gen)
	if err != nil {
		return nil, nil, err
	}
	var cat *views.Catalog
	if gen == 0 {
		cat, catErr = views.LoadFileFS(fsys, filepath.Join(dir, "views.gob"))
		if errors.Is(catErr, os.ErrNotExist) {
			catErr = nil
		}
	}
	return core.New(ix, cat, opts), catErr, nil
}
