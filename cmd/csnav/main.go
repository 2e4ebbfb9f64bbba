// Command csnav is the ontology navigator of the paper's Figure 2: it
// lets a domain user browse the MeSH-like hierarchy, see how many
// citations each concept indexes, and assemble a context specification
// from selected terms — the tooling that makes context predicates
// typo-proof ("the use of such tools for specifying the context removes
// the risk of mistyping the context terms").
//
// Usage (against a data directory written by csbuild, any shard count):
//
//	csnav -data data                          # list the top-level categories
//	csnav -data data -path diseases           # descend one level
//	csnav -data data -path diseases/neoplasms # … and further
//	csnav -data data -select "neoplasms digestive_system" -q "pancreas leukemia"
//
// -select prints the context size for the chosen terms; with -q it also
// runs the context-sensitive query.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"csrank/internal/core"
	"csrank/internal/fsx"
	"csrank/internal/mesh"
	"csrank/internal/query"
	"csrank/internal/segment"
	"csrank/internal/shard"
)

func main() {
	var (
		data    = flag.String("data", "data", "data directory written by csbuild")
		path    = flag.String("path", "", "slash-separated term path to list (empty = roots)")
		selects = flag.String("select", "", "space-separated context terms to inspect")
		q       = flag.String("q", "", "keyword query to run inside the selected context")
		k       = flag.Int("k", 10, "number of results for -q")
		timeout = flag.Duration("timeout", 0, "per-query deadline for -q; on expiry partial results are returned flagged degraded (0 = unbounded)")
	)
	flag.Parse()
	if err := run(*data, *path, *selects, *q, *k, *timeout, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "csnav:", err)
		os.Exit(1)
	}
}

// notes receives what csnav reports about the data directory beside
// its listing: documents left in the ingestion log.
var notes io.Writer = os.Stderr

func run(data, path, selects, qstr string, k int, timeout time.Duration, out io.Writer) error {
	onto, err := mesh.LoadFile(filepath.Join(data, "mesh.gob"))
	if err != nil {
		return fmt.Errorf("load ontology (did csbuild write mesh.gob?): %w", err)
	}
	c, err := shard.Open(data, core.Options{Deadline: timeout})
	if err != nil {
		return err
	}
	// A read-only open does not replay the committed generation's
	// ingestion log, so say what it holds.
	gen := c.Generations()[0]
	if n, err := segment.LoggedDocs(fsx.OS, data, gen); err != nil {
		fmt.Fprintf(notes, "note: generation-%d ingestion log: %v\n", gen, err)
	} else if n > 0 {
		fmt.Fprintf(notes, "note: %d acknowledged documents in the generation-%d ingestion log are not counted or searched read-only (csserve -ingest replays them)\n", n, gen)
	}
	slices, _ := c.Slices()
	// df counts the citations a concept annotates, over every shard.
	df := func(term string) int64 {
		var n int64
		for _, sl := range slices {
			ix := sl.Eng.Index()
			n += ix.DF(ix.Schema().PredicateField, term)
		}
		return n
	}

	if selects == "" {
		return list(onto, df, path, out)
	}

	terms := strings.Fields(selects)
	for _, t := range terms {
		if _, ok := onto.ByName(t); !ok {
			return fmt.Errorf("unknown term %q (navigate with -path to find terms)", t)
		}
	}
	var size int64
	for _, sl := range slices {
		size += sl.Eng.ContextSize(terms)
	}
	fmt.Fprintf(out, "context %v: %d of %d citations\n", terms, size, c.NumDocs())
	if qstr == "" {
		return nil
	}
	pq := query.Query{Keywords: strings.Fields(qstr), Context: terms}
	hits, sum, err := c.SearchSlices(context.Background(), slices, pq, k, "")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "query %q  [plan=%s, results=%d]\n", pq, sum.Agg.Plan, sum.Agg.ResultSize)
	if sum.Agg.Degraded {
		fmt.Fprintf(out, "  !! degraded: %s\n", sum.Agg.DegradedReason)
	}
	for i, h := range hits {
		fmt.Fprintf(out, "  %2d. (%.4f) #%d %s\n", i+1, h.Score, h.Global, slices[h.Slice].Eng.Index().StoredField(h.Local, "title"))
	}
	return nil
}

// list prints the children (or roots) at a hierarchy path with their
// citation counts, mimicking the PubMed MeSH browser.
func list(onto *mesh.Ontology, df func(string) int64, path string, out io.Writer) error {
	var ids []mesh.TermID
	indentBase := ""
	if path == "" {
		ids = onto.Roots()
	} else {
		cur, err := resolvePath(onto, path)
		if err != nil {
			return err
		}
		t := onto.Term(cur)
		fmt.Fprintf(out, "%s  (%d citations)\n", t.Name, df(t.Name))
		ids = t.Children
		indentBase = "  "
	}
	sort.Slice(ids, func(i, j int) bool {
		return df(onto.Term(ids[i]).Name) > df(onto.Term(ids[j]).Name)
	})
	for _, id := range ids {
		t := onto.Term(id)
		marker := ""
		if len(t.Children) > 0 {
			marker = " +"
		}
		fmt.Fprintf(out, "%s%-32s %8d citations%s\n", indentBase, t.Name, df(t.Name), marker)
	}
	return nil
}

func resolvePath(onto *mesh.Ontology, path string) (mesh.TermID, error) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	last := parts[len(parts)-1]
	id, ok := onto.ByName(last)
	if !ok {
		return 0, fmt.Errorf("unknown term %q", last)
	}
	return id, nil
}
