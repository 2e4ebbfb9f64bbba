// Newsarchive: context-sensitive search outside the biomedical domain.
//
// A news archive tags stories with desk categories (politics, sports,
// business, technology, science) and regions. "merger" is routine
// business vocabulary but a rare, newsworthy word on the sports desk;
// "coach" is the opposite. A reader searching {coach, merger} within the
// sports context wants league-merger stories, not the business desk's
// coaching-carousel acquisitions.
//
// The example also demonstrates persistence: the engine is saved to a
// temporary directory and reloaded before querying.
//
//	go run ./examples/newsarchive
package main

import (
	"fmt"
	"log"
	"os"

	"csrank"
)

func main() {
	b := csrank.NewBuilder()

	// The two stories of interest; both carry both query words.
	b.Add(csrank.Document{
		Title:      "League merger reshapes national hockey, coach reacts",
		Body:       "merger merger leagues franchise hockey season",
		Predicates: []string{"sports", "national"},
	})
	b.Add(csrank.Document{
		Title:      "Star coach changes teams amid takeover talk",
		Body:       "coach coach contract transfer team merger rumor",
		Predicates: []string{"sports", "national"},
	})

	// Business desk: mergers everywhere — globally, "merger" is the
	// common word and "coach" the rare one.
	for i := 0; i < 900; i++ {
		b.Add(csrank.Document{
			Title:      fmt.Sprintf("Quarterly deal roundup %d", i),
			Body:       "merger acquisition shares revenue earnings quarter",
			Predicates: []string{"business", "national"},
		})
	}
	// Sports desk: coaches everywhere, mergers almost never.
	for i := 0; i < 450; i++ {
		body := "coach team season playoffs roster training"
		if i < 5 {
			body += " merger"
		}
		b.Add(csrank.Document{
			Title:      fmt.Sprintf("Season notebook %d", i),
			Body:       body,
			Predicates: []string{"sports", "national"},
		})
	}
	// Other desks for realistic statistics.
	for i := 0; i < 300; i++ {
		b.Add(csrank.Document{
			Title:      fmt.Sprintf("Policy briefing %d", i),
			Body:       "election policy parliament vote budget",
			Predicates: []string{"politics", "national"},
		})
	}

	engine, err := b.Build(csrank.BuildOptions{Scorer: csrank.BM25})
	if err != nil {
		log.Fatal(err)
	}

	// Persist and reload — the index and the materialized views round-trip.
	dir, err := os.MkdirTemp("", "newsarchive-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := engine.Save(dir); err != nil {
		log.Fatal(err)
	}
	engine, err = csrank.OpenSharded(dir, csrank.BuildOptions{Scorer: csrank.BM25})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded archive from %s: %d stories, %d views\n\n", dir, engine.NumDocs(), engine.NumViews())

	const q = "coach merger | sports"
	conv, _, err := engine.SearchConventional(q, 3)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stats, err := engine.Search(q, 3)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query: %q\n\nconventional ranking (global statistics):\n", q)
	for i, h := range conv {
		fmt.Printf("  %d. (%.3f) %s\n", i+1, h.Score, h.Title)
	}
	fmt.Printf("\ncontext-sensitive ranking (sports-desk statistics, plan=%s):\n", stats.Plan)
	for i, h := range ctx {
		fmt.Printf("  %d. (%.3f) %s\n", i+1, h.Score, h.Title)
	}
	fmt.Printf("\nsports context holds %d of %d stories\n",
		engine.ContextSize("sports"), engine.NumDocs())
}
