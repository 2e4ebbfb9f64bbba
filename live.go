package csrank

import (
	"fmt"
	"time"

	"csrank/internal/segment"
)

// IngestOptions configures live ingestion on an opened cluster. Every
// index generation ingestion writes is paged format v5.
type IngestOptions struct {
	// RefreshEvery is the interval at which newly added documents become
	// searchable. Zero refreshes synchronously inside every Add: the
	// document is searchable the moment Add returns, at the cost of
	// rebuilding the (small) mutable segment's index per write.
	RefreshEvery time.Duration
	// CompactThreshold triggers a background compaction — draining the
	// mutable segment into the persistent shard indexes — once the
	// segment holds this many documents. Zero compacts only on demand
	// (Compact).
	CompactThreshold int
}

// OpenLive opens a cluster data directory (as written by Save or
// csbuild) for serving plus live ingestion: Add durably logs documents
// to a write-ahead log before acknowledging them, added documents are
// searchable within one refresh interval, and compaction folds them into
// the shard indexes without downtime. Rankings over the live collection
// are bit-identical to a fresh Build over the same documents.
//
// Reopening a directory after a crash recovers every acknowledged
// document: it is either in a committed index generation or replayed
// from the generation's log.
func OpenLive(dir string, opts BuildOptions, ing IngestOptions) (*ShardedEngine, error) {
	sc, err := opts.Scorer.build()
	if err != nil {
		return nil, err
	}
	live, err := segment.Open(dir, segment.Options{
		Core:             opts.coreOptions(sc),
		RefreshEvery:     ing.RefreshEvery,
		CompactThreshold: ing.CompactThreshold,
	})
	if err != nil {
		return nil, err
	}
	se := &ShardedEngine{cluster: live.Cluster(), live: live}
	se.configure(opts)
	return se, nil
}

// Add durably logs the document — fsynced before return — and assigns
// it the next docID. Only engines opened through OpenLive accept
// writes. An error means the document was NOT
// acknowledged.
func (e *ShardedEngine) Add(d Document) (int, error) {
	if e.live == nil {
		return 0, fmt.Errorf("csrank: engine not opened for ingestion (use OpenLive)")
	}
	return e.live.Add(d.indexDoc())
}

// Refresh makes every acknowledged document searchable now, without
// waiting for the refresh interval.
func (e *ShardedEngine) Refresh() error {
	if e.live == nil {
		return fmt.Errorf("csrank: engine not opened for ingestion (use OpenLive)")
	}
	return e.live.Refresh()
}

// Compact synchronously drains the mutable segment into the shard
// indexes: each shard's index is extended with its routed share of the
// segment's documents, persisted as the next on-disk generation, and
// swapped into serving without downtime.
func (e *ShardedEngine) Compact() error {
	if e.live == nil {
		return fmt.Errorf("csrank: engine not opened for ingestion (use OpenLive)")
	}
	return e.live.Compact()
}

// Pending returns how many acknowledged documents await compaction (0
// when ingestion is not enabled).
func (e *ShardedEngine) Pending() int {
	if e.live == nil {
		return 0
	}
	return e.live.Pending()
}

// CompactErr returns the most recent background-compaction failure, nil
// after a success. Compaction failures never lose acknowledged
// documents; they leave the segment intact for a retry.
func (e *ShardedEngine) CompactErr() error {
	if e.live == nil {
		return nil
	}
	return e.live.CompactErr()
}

// Close releases every shard's index and view catalog, unmapping the
// files once no running query holds them; on a live engine it first
// stops background ingestion work, and it releases the write-ahead log.
// Nothing may search the engine afterwards.
func (e *ShardedEngine) Close() error {
	if e.live == nil {
		e.cluster.Close()
		return nil
	}
	return e.live.Close()
}
