// Ingestion: operating the system on a *growing* collection, using an
// extension beyond the paper's core: incremental view maintenance.
// Newly ingested (or retracted) citations fold into the materialized
// views one group update at a time, no re-materialization, made
// crash-safe by routing batches through the write-ahead-log manager
// (internal/wal).
//
// This example works at the internal-package level, as an ingestion
// pipeline would.
//
//	go run ./examples/ingestion
package main

import (
	"fmt"
	"log"
	"os"

	"csrank/internal/corpus"
	"csrank/internal/selection"
	"csrank/internal/views"
	"csrank/internal/wal"
)

func main() {
	// A modest synthetic collection.
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 8000
	cfg.OntologyTerms = 200
	cfg.NumTopics = 0
	c, err := corpus.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := c.BuildIndex(0)
	if err != nil {
		log.Fatal(err)
	}
	tc := int64(len(c.Docs) / 50)
	m, err := selection.Select(ix, selection.Config{TC: tc, TV: 256, SampleSize: 2000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collection: %d citations; %d views selected (T_C=%d)\n\n",
		len(c.Docs), m.Catalog.Len(), tc)

	// Pick a context a view covers.
	terms := selection.FrequentPredicateTerms(ix, tc)
	ctx := terms[:1]
	v := m.Catalog.Match(ctx)
	if v == nil {
		log.Fatalf("no view covers %v", ctx)
	}
	before, err := v.Answer(ctx, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("context %v before ingestion: |D_P| = %d, len(D_P) = %d\n",
		ctx, before.Count, before.Len)

	// --- Incremental maintenance: ingest a batch of new citations. ------
	// Updates go through the write-ahead-log manager so an acknowledged
	// batch survives a crash: the record is appended and fsynced before
	// the ack, and recovery replays the log tail over the newest
	// checksummed snapshot.
	dir, err := os.MkdirTemp("", "csrank-ingest-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	mgr, err := wal.Create(dir, m.Catalog, wal.Options{SnapshotEvery: 8})
	if err != nil {
		log.Fatal(err)
	}
	batch := wal.Batch{
		{Op: wal.OpApply, Doc: views.DocUpdate{Predicates: []string{ctx[0], "humans"}, Len: 180, TF: map[string]int64{"leukemia": 2}}},
		{Op: wal.OpApply, Doc: views.DocUpdate{Predicates: []string{ctx[0]}, Len: 95}},
		{Op: wal.OpApply, Doc: views.DocUpdate{Predicates: []string{"unrelated_term"}, Len: 60}}, // outside the context
	}
	if err := mgr.Apply(batch); err != nil {
		log.Fatal(err)
	}
	after, err := v.Answer(ctx, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after ingesting %d citations:   |D_P| = %d (+%d), len(D_P) = %d (+%d)\n",
		len(batch), after.Count, after.Count-before.Count, after.Len, after.Len-before.Len)

	// A retraction (say, a withdrawn citation) folds back out. Remove
	// validates before mutating, so a bogus retraction is rejected with
	// the views untouched instead of silently corrupting them.
	if err := mgr.Apply(wal.Batch{{Op: wal.OpRemove, Doc: batch[1].Doc}}); err != nil {
		log.Fatal(err)
	}
	reverted, err := v.Answer(ctx, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after one retraction:          |D_P| = %d, len(D_P) = %d\n",
		reverted.Count, reverted.Len)
	ghost := wal.Batch{{Op: wal.OpRemove, Doc: views.DocUpdate{Predicates: []string{"never_ingested"}, Len: 1 << 40}}}
	if err := mgr.Apply(ghost); err != nil {
		fmt.Printf("bogus retraction rejected:     %v\n", err)
	}

	// Recovery: reopen the directory the way a restarted process would
	// and check the recovered catalog matches the live one exactly.
	fp := m.Catalog.Fingerprint()
	if err := mgr.Close(); err != nil {
		log.Fatal(err)
	}
	mgr2, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr2.Close()
	fmt.Printf("recovered generation %d (%d batches replayed): fingerprints match = %v\n",
		rec.Generation, rec.BatchesReplayed, mgr2.Catalog().Fingerprint() == fp)
}
