// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic corpus: Figure 6 (ranking quality),
// the §6.2 view-selection and storage tables, and Figures 7–8 (query
// performance for large and small contexts). Each experiment returns
// typed rows plus a text rendering, so cmd/csexp prints them and
// bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"
	"io"
	"time"

	"csrank/internal/core"
	"csrank/internal/corpus"
	"csrank/internal/index"
	"csrank/internal/selection"
	"csrank/internal/views"
	"csrank/internal/widetable"
)

// Scale parameterizes an experiment run. The defaults reproduce the
// paper's ratios at container scale: T_C = 1% of |D| and T_V = 4096, as
// in §6.2.
type Scale struct {
	// NumDocs is the corpus size.
	NumDocs int
	// OntologyTerms is the predicate vocabulary size.
	OntologyTerms int
	// NumTopics is the benchmark topic count (paper: 30 qualify).
	NumTopics int
	// TCFraction is T_C as a fraction of NumDocs (paper: 0.01).
	TCFraction float64
	// TV is the view-size limit. The paper uses 4096 against 18M-document
	// contexts (≥180k docs at T_C); for views to stay profitable the
	// answering cost O(T_V) must be well below the straightforward cost
	// O(ContextSize), so at container scale T_V is shrunk with the corpus
	// (default 256 against contexts of ≥200 docs, preserving the ratio's
	// direction). EXPERIMENTS.md discusses this scaling substitution.
	TV int
	// Seed drives all generation.
	Seed int64
}

// TC returns the absolute context-size threshold.
func (s Scale) TC() int64 { return int64(float64(s.NumDocs) * s.TCFraction) }

// Setup is a fully built experimental system: corpus, index, wide table,
// selected views, and engines with and without view acceleration.
type Setup struct {
	Scale   Scale
	Corpus  *corpus.Corpus
	Index   *index.Index
	Table   *widetable.Table
	Catalog *views.Catalog
	// WithViews evaluates context queries from the catalog; NoViews
	// always uses the straightforward plan.
	WithViews *core.Engine
	NoViews   *core.Engine
	// Selection records the hybrid selection's work counters.
	Selection selection.Result
	// Durations of the build phases.
	GenTime, IndexTime, SelectTime time.Duration
}

// NewSetup builds the full system at the given scale.
func NewSetup(s Scale) (*Setup, error) {
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = s.Seed
	ccfg.NumDocs = s.NumDocs
	ccfg.OntologyTerms = s.OntologyTerms
	ccfg.NumTopics = s.NumTopics

	t0 := time.Now()
	c, err := corpus.Generate(ccfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: corpus: %w", err)
	}
	genTime := time.Since(t0)

	t0 = time.Now()
	ix, err := c.BuildIndex(0)
	if err != nil {
		return nil, fmt.Errorf("experiments: index: %w", err)
	}
	indexTime := time.Since(t0)

	// ViewSize(·) is estimated by sampling during selection (§4.3); the
	// final materialization is exact.
	sample := 2000
	if sample > s.NumDocs {
		sample = 0
	}
	selCfg := selection.Config{TC: s.TC(), TV: s.TV, Seed: s.Seed, SampleSize: sample}
	t0 = time.Now()
	m, err := selection.Select(ix, selCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: selection: %w", err)
	}
	selectTime := time.Since(t0)

	return &Setup{
		Scale:      s,
		Corpus:     c,
		Index:      ix,
		Table:      m.Table,
		Catalog:    m.Catalog,
		WithViews:  core.New(ix, m.Catalog, core.Options{}),
		NoViews:    core.New(ix, nil, core.Options{}),
		Selection:  m.Result,
		GenTime:    genTime,
		IndexTime:  indexTime,
		SelectTime: selectTime,
	}, nil
}

// line prints one formatted line, ignoring write errors (reports go to
// stdout or a buffer).
func line(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format+"\n", args...)
}
