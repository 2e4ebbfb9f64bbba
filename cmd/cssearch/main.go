// Command cssearch runs context-sensitive queries against a data
// directory built by csbuild, whatever its shard count (the single-engine
// layout older builds wrote opens as one shard).
//
// Usage:
//
//	cssearch -data ./data -q "pancreas leukemia | digestive_system" -k 10
//	cssearch -data ./data -q "..." -mode compare
//
// Modes:
//
//	context         context-sensitive ranking (views when usable); default
//	conventional    the baseline Q_t = Q_k ∪ P (global statistics)
//	straightforward context-sensitive without views (Figure 3 plan)
//	compare         conventional and context-sensitive side by side
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"csrank/internal/core"
	"csrank/internal/fsx"
	"csrank/internal/index"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/segment"
	"csrank/internal/shard"
	"csrank/internal/views"
)

func main() {
	var (
		data        = flag.String("data", "data", "data directory written by csbuild")
		q           = flag.String("q", "", "query, e.g. \"pancreas leukemia | digestive_system\"")
		k           = flag.Int("k", 10, "number of results")
		mode        = flag.String("mode", "context", "context | conventional | straightforward | compare")
		scorer      = flag.String("scorer", "pivoted-tfidf", strings.Join(ranking.Names(), " | "))
		timeout     = flag.Duration("timeout", 0, "per-query deadline (e.g. 50ms); on expiry partial results are returned flagged degraded (0 = unbounded)")
		pruning     = flag.Bool("pruning", false, "enable block-max dynamic pruning (safe: top-k is bit-identical to exhaustive scoring)")
		interactive = flag.Bool("i", false, "interactive mode: read queries from stdin (prefix a line with '?' for plan explanation only)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memprofile  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		liststats   = flag.Bool("liststats", false, "print the index's posting-list container breakdown and exit")
		verify      = flag.Bool("verify", false, "checksum every shard's index file, audit the view catalogs against the indexes (zero drift expected) and exit")
	)
	flag.Parse()
	if *liststats {
		if err := printListStats(*data, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cssearch:", err)
			os.Exit(1)
		}
		return
	}
	if *verify {
		if err := verifyData(*data, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cssearch:", err)
			os.Exit(1)
		}
		return
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cssearch:", err)
		os.Exit(1)
	}
	if *interactive {
		err = runInteractive(*data, *k, *mode, *scorer, *timeout, *pruning, os.Stdin, os.Stdout)
	} else if *q == "" {
		stopProfiles()
		flag.Usage()
		os.Exit(2)
	} else {
		err = run(*data, *q, *k, *mode, *scorer, *timeout, *pruning, os.Stdout)
	}
	stopProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cssearch:", err)
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling and arranges a heap snapshot; the
// returned function stops the CPU profile and writes the memory profile.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	stop = func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memPath != "" {
		cpuStop := stop
		stop = func() {
			cpuStop()
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // get up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}
	return stop, nil
}

// runInteractive reads one query per line and evaluates it; lines
// starting with '?' print the plan explanation instead; "exit" or EOF
// ends the session. Per-query errors are reported and the loop
// continues.
func runInteractive(data string, k int, mode, scorerName string, timeout time.Duration, pruning bool, in io.Reader, out io.Writer) error {
	c, err := openCluster(data, scorerName, timeout, pruning)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "cssearch: %d citations loaded; enter queries like \"w1 w2 | m1 m2\" (exit to quit)\n", c.NumDocs())
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == "exit" || line == "quit":
			return nil
		case strings.HasPrefix(line, "?"):
			pq, err := query.Parse(strings.TrimSpace(line[1:]))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			slices, _ := c.Slices()
			if ex, err := core.ExplainSlices(slices, pq); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprint(out, ex)
			}
		default:
			if err := searchAndPrint(c, line, k, mode, out); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		}
	}
}

// printListStats reports, per field, how the index's posting lists are
// laid out in the adaptive container layer — the storage side of the
// bitmap/array hybrid (index format version 2) — how many lists carry
// per-container score bounds (format v3), and the on-disk block layout
// of the paged format: encoding mix, payload+directory bytes, and the
// compression ratio against the decoded in-memory footprint. The header
// names the file's own format: the paged version its header records (v5
// as every writer emits it, v4 as older builds wrote it), otherwise a
// gob stream an older build wrote (nothing writes those any more). A
// cluster reports each shard's index in turn.
func printListStats(data string, out io.Writer) error {
	c, err := shard.Open(data, core.Options{})
	if err != nil {
		return err
	}
	slices, _ := c.Slices()
	for i, sl := range slices {
		if len(slices) > 1 {
			fmt.Fprintf(out, "shard %d ", i)
		}
		printIndexStats(sl.Eng.Index(), out)
	}
	return nil
}

// printIndexStats is printListStats for one index.
func printIndexStats(ix *index.Index, out io.Writer) {
	format := "legacy gob (v0–v3, read-only)"
	if v := ix.FormatVersion(); v > 0 {
		format = fmt.Sprintf("format v%d", v)
	}
	fmt.Fprintf(out, "index: %s (%s)\n", ix, format)
	for _, f := range ix.Schema().Fields {
		cs := ix.ContainerStats(f.Name)
		if cs.Lists == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-10s %7d lists %9d postings  %7d sparse / %d dense chunks  %5d tf arrays  %6.2f bytes/posting\n",
			f.Name, cs.Lists, cs.Postings, cs.SparseChunks, cs.DenseChunks, cs.TFLists,
			float64(cs.Bytes)/float64maxOne(cs.Postings))
		if cs.BoundedLists > 0 {
			fmt.Fprintf(out, "  %-10s %7d bounded lists  max tf=%d  min doclen=%d\n",
				"", cs.BoundedLists, cs.MaxTF, cs.MinDocLen)
		}
		bs := ix.FieldBlockStats(f.Name)
		disk := bs.PayloadBytes + bs.DirBytes
		fmt.Fprintf(out, "  %-10s on disk: %d bytes (%d payload + %d dir)  %.2f bytes/posting  %.2fx vs decoded\n",
			"", disk, bs.PayloadBytes, bs.DirBytes,
			float64(disk)/float64maxOne(cs.Postings),
			float64(cs.Bytes)/float64maxOne(disk))
		fmt.Fprintf(out, "  %-10s blocks: %d sparse-raw / %d dense-raw / %d packed  %d with tf columns\n",
			"", bs.SparseRaw, bs.DenseRaw, bs.SparsePacked, bs.TFBlocks)
	}
	cs := ix.BlockCacheStats()
	fmt.Fprintf(out, "  block cache: budget=%d used=%d hits=%d misses=%d insertions=%d evictions=%d promotions=%d ghost_hits=%d\n",
		cs.Budget, cs.Used, cs.Hits, cs.Misses, cs.Insertions, cs.Evictions, cs.Promotions, cs.GhostHits)
}

func float64maxOne(n int64) float64 {
	if n < 1 {
		return 1
	}
	return float64(n)
}

func run(data, qstr string, k int, mode, scorerName string, timeout time.Duration, pruning bool, out io.Writer) error {
	c, err := openCluster(data, scorerName, timeout, pruning)
	if err != nil {
		return err
	}
	return searchAndPrint(c, qstr, k, mode, out)
}

// notes receives what the commands report about the data directory
// beside their results: shards served without views, documents left in
// the ingestion log.
var notes io.Writer = os.Stderr

// openCluster loads the data directory with the requested scorer.
func openCluster(data, scorerName string, timeout time.Duration, pruning bool) (*shard.Cluster, error) {
	sc, ok := ranking.New(scorerName)
	if !ok {
		return nil, fmt.Errorf("unknown scorer %q", scorerName)
	}
	c, err := shard.Open(data, core.Options{Scorer: sc, Deadline: timeout, Pruning: pruning})
	if err != nil {
		return nil, err
	}
	for i := range c.NumShards() {
		if err := c.CatalogErr(i); err != nil {
			fmt.Fprintf(notes, "note: shard %d serves without views: %v\n", i, err)
		}
	}
	if eng, _ := c.Engine(0); eng.Catalog() == nil {
		fmt.Fprintln(notes, "note: no views loaded; contextual queries use the straightforward plan")
	}
	// A read-only open does not replay the committed generation's
	// ingestion log, so say what it holds.
	gen := c.Generations()[0]
	if n, err := segment.LoggedDocs(fsx.OS, data, gen); err != nil {
		fmt.Fprintf(notes, "note: generation-%d ingestion log: %v\n", gen, err)
	} else if n > 0 {
		fmt.Fprintf(notes, "note: %d acknowledged documents in the generation-%d ingestion log are not served read-only (csserve -ingest replays them)\n", n, gen)
	}
	return c, nil
}

// verifyData first checksums every section of every shard's index file
// at the committed generation, the lazily verified sections included,
// then runs every view's first-use check (a quarantined view fails the
// run) and audits every shard's view catalog against its index (the
// source of truth): every sampled group's aggregates are recomputed and
// compared. A compacted live directory serves no catalog, so its audit
// ends with the checksums. Exit status is the contract — zero findings
// means the files and catalogs can be trusted for ranking; corruption or
// any drift makes the run fail.
func verifyData(data string, out io.Writer) error {
	c, err := openCluster(data, "pivoted-tfidf", 0, false)
	if err != nil {
		return err
	}
	slices, gens := c.Slices()
	for i, sl := range slices {
		if err := sl.Eng.Index().Verify(); err != nil {
			return fmt.Errorf("shard %d: index: %w", i, err)
		}
	}
	if gens[0] > 0 {
		fmt.Fprintf(out, "generation %d: no view catalog (catalogs serve only at generation 0)\n", gens[0])
		return nil
	}
	findings := 0
	for i, sl := range slices {
		prefix := ""
		if len(slices) > 1 {
			prefix = fmt.Sprintf("shard %d: ", i)
		}
		cat := sl.Eng.Catalog()
		if cat == nil {
			return fmt.Errorf("%sno view catalog to verify (views.gob missing or unreadable: %v)", prefix, c.CatalogErr(i))
		}
		if err := cat.Check(); err != nil {
			return fmt.Errorf("%squarantined: %w", prefix, err)
		}
		drift, err := cat.Verify(sl.Eng.Index(), views.VerifyOptions{})
		if err != nil {
			return err
		}
		if len(drift) == 0 {
			fmt.Fprintf(out, "%sok: %d views agree with the index (fingerprint %s)\n", prefix, cat.Len(), cat.Fingerprint())
		}
		for _, d := range drift {
			fmt.Fprintf(out, "  %s%v\n", prefix, d)
		}
		findings += len(drift)
	}
	if findings > 0 {
		return fmt.Errorf("%d drift finding(s) — re-materialize the views or restore a snapshot", findings)
	}
	return nil
}

// searchAndPrint evaluates one query string in the given mode over every
// shard and prints the ranked results with the merged execution report.
func searchAndPrint(c *shard.Cluster, qstr string, k int, mode string, out io.Writer) error {
	pq, err := query.Parse(qstr)
	if err != nil {
		return err
	}
	show := func(label string, plan core.Plan) error {
		slices, _ := c.Slices()
		hits, sum, err := c.SearchSlices(context.Background(), slices, pq, k, plan)
		if err != nil {
			return err
		}
		st := sum.Agg
		fmt.Fprintf(out, "%s  [plan=%s view=%v results=%d |D_P|=%d %s]\n",
			label, st.Plan, st.UsedView, st.ResultSize, st.ContextSize,
			sum.Elapsed.Round(time.Microsecond))
		if st.Pruning != (core.PruningStats{}) {
			fmt.Fprintf(out, "  pruning: containers skipped=%d docs skipped=%d bound checks=%d\n",
				st.Pruning.ContainersSkipped, st.Pruning.DocsSkipped, st.Pruning.BoundChecks)
		}
		if st.Degraded {
			fmt.Fprintf(out, "  !! degraded: %s\n", st.DegradedReason)
			fmt.Fprintf(out, "     phases: analyze=%s stats=%s score=%s  cost: entries=%d seeks=%d aggregated=%d viewgroups=%d\n",
				st.Phases.Analyze.Round(time.Microsecond), st.Phases.Stats.Round(time.Microsecond),
				st.Phases.Score.Round(time.Microsecond),
				st.EntriesScanned, st.Seeks, st.AggregatedEntries, st.ViewGroupsScanned)
		}
		for i, h := range hits {
			title := slices[h.Slice].Eng.Index().StoredField(h.Local, "title")
			fmt.Fprintf(out, "  %2d. (%.4f) #%d %s\n", i+1, h.Score, h.Global, title)
		}
		return nil
	}
	switch mode {
	case "context":
		return show("context-sensitive", "")
	case "conventional":
		return show("conventional", core.PlanConventional)
	case "straightforward":
		return show("straightforward", core.PlanStraightforward)
	case "compare":
		if err := show("conventional", core.PlanConventional); err != nil {
			return err
		}
		return show("context-sensitive", "")
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}
