package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/selection"
	"csrank/internal/shard"
)

// The pinned corpus. Every run of every workload generates exactly this
// collection (corpusSeed is not the run's -seed: the seed varies the
// inputs sent to the system, not the system's data).
const (
	corpusSeed    = 1
	ontologyTerms = 300
	numTopics     = 30
	numShards     = 4
	tcFraction    = 0.01 // T_C as a share of each shard
	viewSizeLimit = 4096 // T_V
)

// sizes are the scale knobs. The comparable configuration is
// defaultSizes; -short shrinks them for smoke runs only.
type sizes struct {
	BaseDocs int // built into the data dir
	HeldOut  int // ingest stream, same vocabulary
	Queries  int // distinct queries in the log
	TraceQ   int // queries in the traced pass (a third per class)
}

var (
	defaultSizes = sizes{BaseDocs: 24000, HeldOut: 1400, Queries: 3000, TraceQ: 300}
	shortSizes   = sizes{BaseDocs: 12000, HeldOut: 400, Queries: 300, TraceQ: 90}
)

// pinned is the generated collection split into the part csbuild would
// index and the held-out ingest stream.
type pinned struct {
	corp      *corpus.Corpus
	base      []index.Document
	held      []index.Document
	heldCites []corpus.Citation // held, as the wire documents POST /index takes
	genTime   time.Duration
}

// generateCorpus builds the pinned collection; the held-out tail is put
// in the order the run's seed dictates.
func generateCorpus(sz sizes, seed int64) (*pinned, error) {
	cfg := corpus.DefaultConfig()
	cfg.Seed = corpusSeed
	cfg.NumDocs = sz.BaseDocs + sz.HeldOut
	cfg.OntologyTerms = ontologyTerms
	cfg.NumTopics = numTopics
	t0 := time.Now()
	c, err := corpus.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	p := &pinned{corp: c, genTime: time.Since(t0)}
	docs := c.IndexDocuments()
	p.base = docs[:sz.BaseDocs]
	order := rand.New(rand.NewSource(seed)).Perm(sz.HeldOut)
	for _, j := range order {
		p.held = append(p.held, docs[sz.BaseDocs+j])
		p.heldCites = append(p.heldCites, c.Docs[sz.BaseDocs+j])
	}
	return p, nil
}

// buildTimes are the stage timings of one data-dir build.
type buildTimes struct {
	Build    time.Duration // index.BuildFrom, all shards
	Select   time.Duration // selection.Select, all shards
	SaveIdx  time.Duration // Index.SaveMapped, all shards
	Total    time.Duration
	Views    int
	Postings int64 // across all fields and shards
	IdxBytes int64 // index.gob bytes across shards
}

// buildDataDir writes the base documents as csbuild -shards 4 does:
// Split → BuildFrom → Select (T_C = 1 % of the shard, T_V = 4096) →
// SaveMapped v4 + Catalog.SaveFile per shard, then the manifest.
func buildDataDir(dir string, docs []index.Document) (buildTimes, error) {
	var bt buildTimes
	start := time.Now()
	parts, _, err := shard.Split(docs, numShards)
	if err != nil {
		return bt, err
	}
	for i, part := range parts {
		t0 := time.Now()
		ix, err := index.BuildFrom(corpus.Schema(), 0, part)
		if err != nil {
			return bt, fmt.Errorf("shard %d: %w", i, err)
		}
		bt.Build += time.Since(t0)
		tc := int64(tcFraction * float64(len(part)))
		if tc < 1 {
			tc = 1
		}
		t0 = time.Now()
		m, err := selection.Select(ix, selection.Config{TC: tc, TV: viewSizeLimit, Seed: corpusSeed})
		if err != nil {
			return bt, fmt.Errorf("shard %d: %w", i, err)
		}
		bt.Select += time.Since(t0)
		bt.Views += m.Catalog.Len()
		sd := shard.ShardDir(dir, i)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return bt, err
		}
		idxPath := filepath.Join(sd, "index.gob")
		t0 = time.Now()
		if err := ix.SaveMapped(idxPath); err != nil {
			return bt, fmt.Errorf("shard %d: %w", i, err)
		}
		bt.SaveIdx += time.Since(t0)
		if err := m.Catalog.SaveFile(filepath.Join(sd, "views.gob")); err != nil {
			return bt, fmt.Errorf("shard %d: %w", i, err)
		}
		st, err := os.Stat(idxPath)
		if err != nil {
			return bt, err
		}
		bt.IdxBytes += st.Size()
		for _, f := range ix.Schema().Fields {
			bt.Postings += ix.ContainerStats(f.Name).Postings
		}
	}
	if err := shard.SaveManifest(dir, shard.NewManifest(len(docs), numShards)); err != nil {
		return bt, err
	}
	bt.Total = time.Since(start)
	return bt, nil
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
