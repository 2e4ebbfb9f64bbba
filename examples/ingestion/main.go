// Ingestion: operating the system on a *growing* collection, through the
// public API. A saved collection is opened live, new citations are added
// (each one logged and fsynced before Add returns), and a restart
// recovers every one.
//
//	go run ./examples/ingestion
package main

import (
	"fmt"
	"log"
	"os"

	"csrank"
	"csrank/internal/corpus"
)

func main() {
	// A modest synthetic collection.
	cfg := corpus.DefaultConfig()
	cfg.NumDocs = 503
	cfg.OntologyTerms = 200
	cfg.NumTopics = 0
	c, err := corpus.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Save, open live, add, restart.
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
	fmt.Printf("live collection: %d documents before restart, %d after\n", n, reopened.NumDocs())
}
