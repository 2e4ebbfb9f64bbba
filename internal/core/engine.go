// Package core implements the context-sensitive search engine — the
// paper's primary contribution. It evaluates queries Q_c = Q_k | P three
// ways:
//
//   - Conventional (the baseline Q_t = Q_k ∪ P of §6): the context terms
//     act as boolean filters and ranking uses whole-collection statistics.
//   - Straightforward context-sensitive (§3.1, Figure 3): the context is
//     materialized by inverted-list intersection and every
//     collection-specific statistic is computed by intersection +
//     aggregation at query time.
//   - View-based context-sensitive (§4): statistics are answered from the
//     smallest usable materialized view; only statistics the views do not
//     carry (df/tc of infrequent keywords) fall back to intersections,
//     which are cheap precisely because those keywords are infrequent
//     (§6.2).
//
// All three share one ranking function f(S_q, S_d, S_c) — only the
// statistics source differs, exactly as Formula 2 prescribes.
//
// Concurrency: one query runs on one goroutine per engine. Engines are
// safe for concurrent queries, and the only fan-out is across slices
// (SearchSlicesPartial), so a deployment that wants more cores per query
// uses more shards.
//
// Failure semantics: a query threads its context.Context through the
// whole query path — the statistics phase, the scoring walk, and
// cooperative checkpoints inside the postings kernels. An expired
// deadline degrades gracefully, never an error: during statistics to
// approximate statistics, during scoring to a flagged partial top k; the
// result is empty only when the deadline expired before scoring started.
// An explicit cancellation fails the query with ctx's error; a panic
// anywhere in the query path is recovered, converted to an error
// carrying the captured stack, and fails only that query.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csrank/internal/analysis"
	"csrank/internal/index"
	"csrank/internal/postings"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/views"
)

// Plan names the evaluation strategy an execution used.
type Plan string

// The three evaluation strategies.
const (
	PlanConventional    Plan = "conventional"
	PlanView            Plan = "view"
	PlanStraightforward Plan = "straightforward"
)

// Options configures an Engine.
type Options struct {
	// Scorer is the ranking function; nil selects pivoted TF-IDF with the
	// paper's s = 0.2.
	Scorer ranking.Scorer
	// CostBased enables plan selection by the §3.2 cost model: a usable
	// view is consulted only when its scan cost (ViewSize) undercuts the
	// straightforward bound ((n+1)·Σ|L_m|, Proposition 3.1). Without it,
	// a usable view always wins — the paper's policy, which is right for
	// the covered-context regime it targets but can lose to the
	// straightforward plan on incidentally covered tiny contexts.
	CostBased bool
	// Parallelism is ignored: every query runs on one goroutine per
	// engine, and more cores per query come from more shards.
	//
	// Deprecated: set nothing. The field remains only so that callers
	// outside this module that still set it keep compiling.
	Parallelism int
	// Deadline bounds each phase of a query — statistics, then scoring —
	// layered onto whatever deadline the caller's context already
	// carries. When it expires the engine degrades instead of failing:
	// statistics fall back to approximate ones, scoring returns its
	// partial top k, and the result is flagged Degraded. It is empty only
	// when the deadline expired before scoring started. Zero means no
	// per-phase deadline.
	Deadline time.Duration
	// StatsBudget bounds the context-statistics phase of contextual
	// queries. When it expires before the exact S_c(D_P) computation
	// finishes, the engine falls back to approximate statistics — a
	// usable view's O(ViewSize) answer when one exists, whole-collection
	// statistics otherwise — and flags the result Degraded, per the
	// paper's hybrid bounded-worst-case philosophy. Zero means no budget.
	StatsBudget time.Duration
	// Pruning lets the scoring walk compare against the top-k threshold
	// τ and skip documents, or whole 2^16-docID containers, that cannot
	// enter the top k; results are bit-identical either way. It takes
	// effect when k > 0 and every keyword list carries bounds (any index
	// this version builds or loads). Off, the walk charges exactly
	// postings.Intersect's list work, so the §6 experiments pin it off.
	Pruning bool
}

// Result is one ranked hit.
type Result struct {
	DocID uint32
	Score float64
}

// PhaseTimings breaks one execution's wall clock into its phases. The
// phases run one after another on the query's goroutine, so on one
// engine the parts sum to at most Elapsed.
type PhaseTimings struct {
	// Analyze is query analysis (tokenization, normalization).
	Analyze time.Duration
	// Stats is the context-statistics phase (views, aggregation).
	Stats time.Duration
	// Score is the walk over the result set: intersection, ranking and
	// top-k selection in one pass.
	Score time.Duration
}

// ExecStats reports what one query execution did and cost.
type ExecStats struct {
	// Stats accumulates the inverted-list and view-scan cost counters.
	postings.Stats
	// Plan is the strategy used.
	Plan Plan
	// UsedView reports whether a materialized view answered statistics.
	UsedView bool
	// ViewSize is the group count of the used view (0 if none).
	ViewSize int
	// FallbackKeywords counts query keywords whose df/tc had to be
	// computed by intersection because no view tracks them (or, in
	// degraded mode, estimated because the budget was gone).
	FallbackKeywords int
	// ResultSize counts the conjunction members the scoring walk visited:
	// the result cardinality with pruning off, at most that with it on
	// (members of skipped containers are never enumerated).
	ResultSize int
	// ContextSize is |D_P| (0 for conventional evaluation of a
	// context-free query).
	ContextSize int64
	// Degraded reports that a deadline or statistics budget expired and
	// the results are partial and/or ranked under approximate
	// statistics. Degraded executions return a nil error: boundedness is
	// the contract, and the flag (plus DegradedReason) tells the caller
	// what was traded away.
	Degraded bool
	// DegradedReason explains each degradation, "; "-joined in the order
	// the phases hit their limits. Empty when Degraded is false.
	DegradedReason string
	// Pruning reports what dynamic pruning did (all zero when the walk
	// never compared against τ).
	Pruning PruningStats
	// Phases is the per-phase wall-clock breakdown.
	Phases PhaseTimings
	// Elapsed is wall-clock execution time.
	Elapsed time.Duration
}

// Degrade flags the execution as degraded with the given reason,
// accumulating "; "-joined reasons. Exported for layers above the engine
// (the shard scatter-gather marks cluster-level partial results through
// it).
func (st *ExecStats) Degrade(reason string) {
	st.Degraded = true
	if st.DegradedReason == "" {
		st.DegradedReason = reason
	} else {
		st.DegradedReason += "; " + reason
	}
}

// quarantineReason is the degradation reason attached when an execution
// touched quarantined (corrupt, empty-serving) mapped blocks.
const quarantineReason = "corrupt block(s) quarantined: affected containers skipped"

// noteQuarantine is deferred by every public query entry point: an
// execution that touched quarantined blocks silently skipped their
// containers, so its results are partial and must say so.
func noteQuarantine(st *ExecStats) {
	if st.QuarantineSkips > 0 {
		st.Degrade(quarantineReason)
	}
}

// Engine evaluates context-sensitive queries over an index, optionally
// accelerated by a view catalog. It is safe for concurrent use,
// including SwapCatalog racing with in-flight queries.
type Engine struct {
	ix *index.Index
	// catalog may hold nil. It is atomic so a recovered or freshly
	// rolled catalog can replace the serving one mid-flight: each query
	// path loads the pointer once and sticks with that snapshot, so a
	// query never mixes statistics from two catalog states.
	catalog atomic.Pointer[views.Catalog]
	// catVersion counts catalog swaps. It is the engine's contribution to
	// serving-layer result-cache tags: a result computed under one
	// catalog state must never serve after SwapCatalog (plans and stats
	// differ even when scores do not), and the monotonic counter makes
	// the staleness check an equality test.
	catVersion atomic.Uint64
	scorer     ranking.Scorer

	contentField string
	predField    string
	contentAn    *analysis.Analyzer
	predAn       *analysis.Analyzer

	globalN   int64
	globalLen int64
	// docLens is the content field's per-document length column, resolved
	// once per engine (an engine never changes its index): the aggregation
	// and scoring loops index it per document.
	docLens []int32

	costBased   bool
	deadline    time.Duration
	statsBudget time.Duration
	pruning     bool

	// refs counts the engine's holders: its owner, whose reference New
	// gives, plus every caller between a successful Acquire and its
	// Release. The release that brings it to zero closes the index and
	// every catalog the engine has held.
	refs atomic.Int64
	// swapped holds the catalogs SwapCatalog replaced. A query that
	// loaded one may still be reading it, so they close with the engine,
	// never earlier.
	swappedMu sync.Mutex
	swapped   []*views.Catalog
}

// New creates an engine. catalog may be nil (no view acceleration).
func New(ix *index.Index, catalog *views.Catalog, opts Options) *Engine {
	scorer := opts.Scorer
	if scorer == nil {
		scorer = ranking.NewPivotedTFIDF()
	}
	schema := ix.Schema()
	e := &Engine{
		ix:           ix,
		scorer:       scorer,
		contentField: schema.ContentField,
		predField:    schema.PredicateField,
		contentAn:    ix.AnalyzerFor(schema.ContentField),
		predAn:       ix.AnalyzerFor(schema.PredicateField),
		globalN:      int64(ix.NumDocs()),
		globalLen:    ix.TotalFieldLen(schema.ContentField),
		docLens:      ix.FieldLens(schema.ContentField),
		costBased:    opts.CostBased,
		deadline:     opts.Deadline,
		statsBudget:  opts.StatsBudget,
		pruning:      opts.Pruning,
	}
	if len(e.docLens) < ix.NumDocs() {
		// A snapshot may omit the column, or hold a short one, and still
		// load; the missing documents have length 0, as Index.FieldLen
		// answers.
		padded := make([]int32, ix.NumDocs())
		copy(padded, e.docLens)
		e.docLens = padded
	}
	e.catalog.Store(catalog)
	e.refs.Store(1)
	return e
}

// Acquire takes a reference on the engine for one use of its index — a
// query and the stored fields its results read — and reports whether it
// got one. It fails once the last reference is gone and the index is
// closed; the caller then loads whatever serves now. Pair every
// successful Acquire with one Release.
func (e *Engine) Acquire() bool {
	for {
		n := e.refs.Load()
		if n <= 0 {
			return false
		}
		if e.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Release drops one reference. An owner that retires the engine
// releases the reference New gave it; whichever release is the last
// closes the index and every catalog the engine has served from,
// current or swapped out — unmapping mapped ones — so nothing may read
// the engine after its own Release.
func (e *Engine) Release() {
	if e.refs.Add(-1) == 0 {
		e.docLens = nil
		e.ix.Close()
		e.swappedMu.Lock()
		defer e.swappedMu.Unlock()
		for _, c := range append(e.swapped, e.catalog.Load()) {
			if c != nil {
				c.Close()
			}
		}
	}
}

// Index returns the engine's index.
func (e *Engine) Index() *index.Index { return e.ix }

// Catalog returns the engine's view catalog (nil if none).
func (e *Engine) Catalog() *views.Catalog { return e.catalog.Load() }

// SwapCatalog atomically replaces the engine's view catalog. In-flight
// queries finish on the catalog they already loaded — both states are
// internally consistent — so a reloaded or re-materialized catalog can
// go live without a restart or a lock on the query path; the replaced
// catalog stays open until the engine's last Release. Pass nil to
// disable view acceleration.
func (e *Engine) SwapCatalog(cat *views.Catalog) {
	if old := e.catalog.Swap(cat); old != nil {
		e.swappedMu.Lock()
		if !slices.Contains(e.swapped, old) {
			e.swapped = append(e.swapped, old)
		}
		e.swappedMu.Unlock()
	}
	e.catVersion.Add(1)
}

// CatalogVersion returns how many times SwapCatalog has run on this
// engine — a monotonic component of result-cache tags.
func (e *Engine) CatalogVersion() uint64 { return e.catVersion.Load() }

// analyzed holds a query after analysis: distinct content terms (in first
// occurrence order), the full analyzed keyword stream (for tq), and the
// normalized context predicates.
type analyzed struct {
	kwTerms  []string // distinct
	kwStream []string // with duplicates, for S_q
	context  []string // normalized predicates
}

// ErrBadQuery wraps every analysis error (no keywords, a blank term, no
// keyword left after analysis): a fact about the query, identical on every
// slice, so a scatter-gather fails the query without blaming a slice.
var ErrBadQuery = errors.New("core: bad query")

func (e *Engine) analyze(q query.Query) (analyzed, error) {
	if err := q.Validate(); err != nil {
		return analyzed{}, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	var a analyzed
	seen := map[string]bool{}
	for _, kw := range q.Keywords {
		for _, term := range e.contentAn.Analyze(kw) {
			a.kwStream = append(a.kwStream, term)
			if !seen[term] {
				seen[term] = true
				a.kwTerms = append(a.kwTerms, term)
			}
		}
	}
	if len(a.kwTerms) == 0 {
		return analyzed{}, fmt.Errorf("%w: %q has no indexable keywords", ErrBadQuery, q)
	}
	a.context = e.normalizeContext(q.Context)
	return a, nil
}

// normalizeContext analyzes context predicates into the form every plan
// and view match uses: predicate-field terms, deduplicated and sorted.
func (e *Engine) normalizeContext(preds []string) []string {
	var norm []string
	seen := map[string]bool{}
	for _, m := range preds {
		for _, term := range e.predAn.Analyze(m) {
			if !seen[term] {
				seen[term] = true
				norm = append(norm, term)
			}
		}
	}
	sort.Strings(norm)
	return norm
}

// lists fetches the posting lists for the analyzed query. A nil list
// means the term is absent and the conjunctive result is empty.
func (e *Engine) lists(a analyzed) (kw, preds []*postings.List) {
	kw = make([]*postings.List, len(a.kwTerms))
	for i, w := range a.kwTerms {
		kw[i] = e.ix.Postings(e.contentField, w)
	}
	preds = make([]*postings.List, len(a.context))
	for i, m := range a.context {
		preds[i] = e.ix.Postings(e.predField, m)
	}
	return kw, preds
}

// SearchStraightforwardCtx is Search under PlanStraightforward, kept
// for the benchmark module's golden ranking; ROADMAP item 1 deletes it.
func (e *Engine) SearchStraightforwardCtx(ctx context.Context, q query.Query, k int) ([]Result, ExecStats, error) {
	return e.Search(ctx, q, k, PlanStraightforward)
}
