// Command csbuild generates a synthetic PubMed-like corpus,
// hash-partitions it over -shards document partitions (one by default),
// builds each partition's inverted index, runs hybrid view selection per
// partition (T_C scaled to its size), and persists everything as a
// cluster data directory — cluster.json plus shard-NNN/{index.gob,
// views.gob}, with mesh.gob and queries.txt at the root — that csserve,
// cssearch, csnav and csrank.OpenSharded load. Rankings are
// bit-identical for every shard count.
//
// Usage:
//
//	csbuild -out ./data -docs 20000 -terms 300 -tc 0.01 -tv 4096
//	csbuild -out ./cluster -docs 20000 -shards 4
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/selection"
	"csrank/internal/shard"
)

func main() {
	var (
		out     = flag.String("out", "data", "output directory (created if missing)")
		docs    = flag.Int("docs", 20000, "number of synthetic citations")
		terms   = flag.Int("terms", 300, "approximate MeSH vocabulary size")
		topics  = flag.Int("topics", 30, "benchmark topics embedded in the corpus")
		tcFrac  = flag.Float64("tc", 0.01, "context-size threshold T_C as a fraction of the corpus")
		tv      = flag.Int("tv", 4096, "view-size limit T_V (non-empty tuples)")
		seed    = flag.Int64("seed", 1, "generation seed")
		segSize = flag.Int("segsize", 0, "posting-list skip-segment size M0 (0 = default 128)")
		dump    = flag.Bool("dump", false, "also write the raw citations as citations.jsonl")
		shards  = flag.Int("shards", 1, "document partitions (shard-NNN dirs under cluster.json)")
	)
	flag.Parse()
	if err := run(*out, *docs, *terms, *topics, *tcFrac, *tv, *seed, *segSize, *dump, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "csbuild:", err)
		os.Exit(1)
	}
}

func run(out string, docs, terms, topics int, tcFrac float64, tv int, seed int64, segSize int, dump bool, shards int) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	cfg.NumDocs = docs
	cfg.OntologyTerms = terms
	cfg.NumTopics = topics

	t0 := time.Now()
	c, err := corpus.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("generated %d citations over %d MeSH terms in %s\n",
		len(c.Docs), c.Onto.Len(), time.Since(t0).Round(time.Millisecond))

	if err := writeQueries(out, c); err != nil {
		return err
	}
	parts, _, err := shard.Split(c.IndexDocuments(), shards)
	if err != nil {
		return err
	}
	t0 = time.Now()
	totalViews := 0
	for i, part := range parts {
		ix, err := index.BuildFrom(corpus.Schema(), segSize, part)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		tc := int64(tcFrac * float64(len(part)))
		if tc < 1 {
			tc = 1
		}
		m, err := selection.Select(ix, selection.Config{TC: tc, TV: tv, Seed: seed})
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		totalViews += m.Catalog.Len()
		sd := shard.ShardDir(out, i)
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return err
		}
		if err := ix.SaveMapped(filepath.Join(sd, "index.gob")); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if err := m.Catalog.SaveFile(filepath.Join(sd, "views.gob")); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		fmt.Printf("  shard %d: %s, %d views (T_C=%d)\n", i, ix, m.Catalog.Len(), tc)
	}
	if err := shard.SaveManifest(out, shard.NewManifest(len(c.Docs), shards)); err != nil {
		return err
	}
	if err := c.Onto.SaveFile(filepath.Join(out, "mesh.gob")); err != nil {
		return err
	}
	if dump {
		path := filepath.Join(out, "citations.jsonl")
		if err := c.SaveJSONL(path); err != nil {
			return err
		}
		fmt.Printf("dumped raw citations to %s\n", path)
	}
	fmt.Printf("wrote %d-shard cluster (%d docs, %d views, format v%d) under %s in %s\n",
		shards, len(c.Docs), totalViews, index.MappedFormatVersion, out, time.Since(t0).Round(time.Millisecond))
	return nil
}

// writeQueries dumps the corpus topics as a replayable query log
// (queries.txt, "keywords | context terms" per line) for csload.
func writeQueries(out string, c *corpus.Corpus) error {
	if len(c.Topics) == 0 {
		return nil
	}
	var b strings.Builder
	for _, t := range c.Topics {
		b.WriteString(strings.Join(t.Keywords, " "))
		if len(t.ContextTerms) > 0 {
			b.WriteString(" | ")
			b.WriteString(strings.Join(t.ContextTerms, " "))
		}
		b.WriteByte('\n')
	}
	path := filepath.Join(out, "queries.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d topic queries)\n", path, len(c.Topics))
	return nil
}
