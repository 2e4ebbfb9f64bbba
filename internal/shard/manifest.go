package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
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
// reconstruct every local→global docID map; ShardDocs is recorded
// redundantly so Open can detect a shard directory that drifted from
// the partition it claims to be.
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
func LoadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
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

// Save persists the cluster under dir: one engine data directory per
// shard (shard-%03d/index.gob in the paged format v4, which Open maps
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
		if err := sl.Eng.Index().SaveMapped(filepath.Join(sd, "index.gob")); err != nil {
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

// Open loads a persisted cluster: the manifest, then every shard's
// index (Save writes format v4, whose postings map lazily, so N shards
// do not multiply resident heap; gob indexes from older builds still
// load, fully decoded) and optional view catalog, each behind an engine
// built with opts. A shard whose document count disagrees with the
// manifest fails the open — serving a drifted partition would silently
// corrupt rankings.
//
// A directory without a manifest that holds an index.gob — the
// single-engine layout older builds wrote — opens as a one-shard cluster
// rooted at dir, so Save converts it to the cluster layout.
func Open(dir string, opts core.Options) (*Cluster, error) {
	m, err := LoadManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		if _, serr := os.Stat(filepath.Join(dir, "index.gob")); serr == nil {
			eng, err := openEngine(dir, opts)
			if err != nil {
				return nil, err
			}
			return NewCluster([]*core.Engine{eng}, GlobalMaps(eng.Index().NumDocs(), 1))
		}
	}
	if err != nil {
		return nil, err
	}
	engines := make([]*core.Engine, m.Shards)
	for i := range engines {
		eng, err := openEngine(ShardDir(dir, i), opts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if n := eng.Index().NumDocs(); n != m.ShardDocs[i] {
			return nil, fmt.Errorf("shard %d: index holds %d documents, manifest says %d", i, n, m.ShardDocs[i])
		}
		engines[i] = eng
	}
	return NewCluster(engines, GlobalMaps(m.TotalDocs, m.Shards))
}

// openEngine loads one engine data directory: index.gob and, when
// present and readable, views.gob.
func openEngine(dir string, opts core.Options) (*core.Engine, error) {
	ix, err := index.LoadFile(filepath.Join(dir, "index.gob"))
	if err != nil {
		return nil, err
	}
	cat, err := views.LoadFile(filepath.Join(dir, "views.gob"))
	if err != nil {
		cat = nil // view-less engine
	}
	return core.New(ix, cat, opts), nil
}
