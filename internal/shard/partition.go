// Package shard implements document-partitioned scatter-gather query
// serving: a Cluster hash-partitions one logical collection across N
// independent engines, fans each query out concurrently in two phases
// (partial statistics, then scoring under the merged global
// statistics), and merges the per-shard top-k under the engine's strict
// (score, docID) total order. The merged ranking — scores, order and
// tie-breaks — is provably bit-identical to a single engine holding the
// whole collection (see core/scatter.go for the statistics argument and
// core.MergeResults for the merge argument), so sharding is purely a
// latency/scale lever, never a ranking change.
package shard

import (
	"fmt"

	"csrank/internal/index"
)

// PartitionFNV names the built-in partition function: FNV-1a over the
// little-endian bytes of the 32-bit global docID. It is the only
// partitioner this package writes into manifests; the name is recorded
// so a future scheme can be introduced without ambiguity.
const PartitionFNV = "fnv1a/doc32"

// ShardOf assigns global document g to one of n shards by FNV-1a
// hashing its 32-bit little-endian representation. The function is a
// pure function of (g, n), so the local→global docID maps of a cluster
// never need persisting — GlobalMaps recomputes them from the two
// numbers a manifest records.
func ShardOf(g uint32, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < 32; i += 8 {
		h ^= uint32(byte(g >> i))
		h *= prime32
	}
	return int(h % uint32(n))
}

// Split partitions docs — global docID = slice position, the same
// insertion-order numbering every builder uses — into n per-shard
// document sets plus the local→global docID maps. Within a shard,
// locals are assigned in ascending global order, so the local→global
// map is strictly increasing: a shard's internal (score, local docID)
// tie-break order coincides with the global (score, global docID)
// order, which is what makes per-shard top-k truncation rank-safe.
func Split(docs []index.Document, n int) (parts [][]index.Document, globals [][]uint32, err error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("shard: cannot split into %d shards", n)
	}
	parts = make([][]index.Document, n)
	globals = GlobalMaps(len(docs), n)
	for i := range parts {
		parts[i] = make([]index.Document, 0, len(globals[i]))
	}
	for g, d := range docs {
		s := ShardOf(uint32(g), n)
		parts[s] = append(parts[s], d)
	}
	return parts, globals, nil
}

// GlobalMaps recomputes the local→global docID maps for total documents
// hash-partitioned over n shards: globals[s][local] is the global docID
// of shard s's local document. Each map is strictly increasing and the
// maps partition [0, total).
func GlobalMaps(total, n int) [][]uint32 {
	sizes := make([]int, n)
	for g := 0; g < total; g++ {
		sizes[ShardOf(uint32(g), n)]++
	}
	globals := make([][]uint32, n)
	for s := range globals {
		globals[s] = make([]uint32, 0, sizes[s])
	}
	for g := 0; g < total; g++ {
		s := ShardOf(uint32(g), n)
		globals[s] = append(globals[s], uint32(g))
	}
	return globals
}
