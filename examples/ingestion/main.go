// Ingestion: operating the system on a *growing* collection.
//
// The first half uses an extension beyond the paper's core, incremental
// view maintenance, at the internal-package level: newly ingested (or
// retracted) citations fold into the materialized views one group update
// at a time, with no re-materialization.
//
// The second half is durable ingestion through the public API: a saved
// collection is opened live, new citations are added (each one logged
// and fsynced before Add returns), and a restart recovers every one.
//
//	go run ./examples/ingestion
package main

import (
	"fmt"
	"log"
	"os"

	"csrank"
	"csrank/internal/corpus"
	"csrank/internal/selection"
	"csrank/internal/views"
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
	batch := []views.DocUpdate{
		{Predicates: []string{ctx[0], "humans"}, Len: 180, TF: map[string]int64{"leukemia": 2}},
		{Predicates: []string{ctx[0]}, Len: 95},
		{Predicates: []string{"unrelated_term"}, Len: 60}, // outside the context
	}
	for _, u := range batch {
		m.Catalog.Apply(u)
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
	if err := m.Catalog.Remove(batch[1]); err != nil {
		log.Fatal(err)
	}
	reverted, err := v.Answer(ctx, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after one retraction:          |D_P| = %d, len(D_P) = %d\n",
		reverted.Count, reverted.Len)
	ghost := views.DocUpdate{Predicates: []string{"never_ingested"}, Len: 1 << 40}
	if err := m.Catalog.Remove(ghost); err != nil {
		fmt.Printf("bogus retraction rejected:     %v\n", err)
	}

	// --- Durable ingestion: save, open live, add, restart. --------------
	dir, err := os.MkdirTemp("", "csrank-ingest-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	doc := func(cit corpus.Citation) csrank.Document {
		return csrank.Document{Title: cit.Title, Body: cit.Abstract, Predicates: cit.Mesh}
	}
	b := csrank.NewBuilder()
	for _, cit := range c.Docs[:500] {
		b.Add(doc(cit))
	}
	eng, err := b.Build(csrank.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Save(dir); err != nil {
		log.Fatal(err)
	}
	live, err := csrank.OpenLive(dir, csrank.BuildOptions{}, csrank.IngestOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, cit := range c.Docs[500:503] {
		if _, err := live.Add(doc(cit)); err != nil {
			log.Fatal(err)
		}
	}
	n := live.NumDocs()
	if err := live.Close(); err != nil {
		log.Fatal(err)
	}
	// Reopen the directory the way a restarted process would: the added
	// citations are replayed from the segment's write-ahead log.
	reopened, err := csrank.OpenLive(dir, csrank.BuildOptions{}, csrank.IngestOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	fmt.Printf("\nlive collection: %d documents before restart, %d after\n", n, reopened.NumDocs())
}
