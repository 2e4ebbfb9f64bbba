// Command csnav is the ontology navigator of the paper's Figure 2: it
// lets a domain user browse the MeSH-like hierarchy, see how many
// citations each concept indexes, and assemble a context specification
// from selected terms — the tooling that makes context predicates
// typo-proof ("the use of such tools for specifying the context removes
// the risk of mistyping the context terms").
//
// Usage (against a data directory written by csbuild):
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
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"csrank/internal/core"
	"csrank/internal/index"
	"csrank/internal/mesh"
	"csrank/internal/query"
	"csrank/internal/views"
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
	if err := run(*data, *path, *selects, *q, *k, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "csnav:", err)
		os.Exit(1)
	}
}

func run(data, path, selects, qstr string, k int, timeout time.Duration) error {
	onto, err := mesh.LoadFile(filepath.Join(data, "mesh.gob"))
	if err != nil {
		return fmt.Errorf("load ontology (did csbuild write mesh.gob?): %w", err)
	}
	ix, err := index.LoadFile(filepath.Join(data, "index.gob"))
	if err != nil {
		return err
	}
	cat, _ := views.LoadFile(filepath.Join(data, "views.gob"))
	predField := ix.Schema().PredicateField

	if selects == "" {
		return list(onto, ix, predField, path)
	}

	terms := strings.Fields(selects)
	for _, t := range terms {
		if _, ok := onto.ByName(t); !ok {
			return fmt.Errorf("unknown term %q (navigate with -path to find terms)", t)
		}
	}
	e := core.New(ix, cat, core.Options{Deadline: timeout})
	size := e.ContextSize(terms)
	fmt.Printf("context %v: %d of %d citations\n", terms, size, ix.NumDocs())
	if qstr == "" {
		return nil
	}
	pq := query.Query{Keywords: strings.Fields(qstr), Context: terms}
	res, st, err := e.SearchCtx(context.Background(), pq, k)
	if err != nil {
		return err
	}
	fmt.Printf("query %q  [plan=%s, results=%d]\n", pq, st.Plan, st.ResultSize)
	if st.Degraded {
		fmt.Printf("  !! degraded: %s\n", st.DegradedReason)
	}
	for i, r := range res {
		fmt.Printf("  %2d. (%.4f) %s\n", i+1, r.Score, ix.StoredField(r.DocID, "title"))
	}
	return nil
}

// list prints the children (or roots) at a hierarchy path with their
// citation counts, mimicking the PubMed MeSH browser.
func list(onto *mesh.Ontology, ix *index.Index, predField, path string) error {
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
		fmt.Printf("%s  (%d citations)\n", t.Name, ix.DF(predField, t.Name))
		ids = t.Children
		indentBase = "  "
	}
	sort.Slice(ids, func(i, j int) bool {
		return ix.DF(predField, onto.Term(ids[i]).Name) > ix.DF(predField, onto.Term(ids[j]).Name)
	})
	for _, id := range ids {
		t := onto.Term(id)
		marker := ""
		if len(t.Children) > 0 {
			marker = " +"
		}
		fmt.Printf("%s%-32s %8d citations%s\n", indentBase, t.Name,
			ix.DF(predField, t.Name), marker)
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
