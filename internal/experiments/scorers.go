package experiments

import (
	"context"
	"io"

	"csrank/internal/core"
	"csrank/internal/query"
	"csrank/internal/ranking"
	"csrank/internal/trec"
)

// ScorerRow is one ranking model's Figure 6-style summary under both
// statistics sources.
type ScorerRow struct {
	Scorer  string
	Conv    trec.Summary
	Ctx     trec.Summary
	CtxWins int
	Queries int
}

// ScorerComparison is the model-sensitivity extension experiment: §2.2
// argues the framework is ranking-model-agnostic — any f over Table 1's
// statistics becomes context-sensitive by swapping S_c(D) for S_c(D_P) —
// so the ranking-quality gain should appear for every model, not just the
// pivoted formula the paper evaluates.
type ScorerComparison struct {
	Rows []ScorerRow
}

// RunScorerComparison evaluates the benchmark under each ranking model.
func RunScorerComparison(s *Setup) (ScorerComparison, error) {
	var out ScorerComparison
	for _, sc := range ranking.All() {
		eng := core.New(s.Index, s.Catalog, core.Options{Scorer: sc})
		var conv, ctx []trec.TopicResult
		wins := 0
		for _, topic := range s.Corpus.Topics {
			q := query.Query{Keywords: topic.Keywords, Context: topic.ContextTerms}
			qrels := trec.NewQrels(topic.Relevant)
			c, cst, err := eng.Search(context.Background(), q, 0, core.PlanConventional)
			if err != nil {
				return out, err
			}
			x, _, err := eng.Search(context.Background(), q, 0, "")
			if err != nil {
				return out, err
			}
			if !trec.Qualifies(cst.ResultSize, len(topic.Relevant)) {
				continue
			}
			cr := trec.Evaluate(topic.ID, docIDs(c), qrels)
			xr := trec.Evaluate(topic.ID, docIDs(x), qrels)
			conv = append(conv, cr)
			ctx = append(ctx, xr)
			if xr.PrecisionAt20 > cr.PrecisionAt20 {
				wins++
			}
		}
		out.Rows = append(out.Rows, ScorerRow{
			Scorer:  sc.Name(),
			Conv:    trec.Summarize(conv),
			Ctx:     trec.Summarize(ctx),
			CtxWins: wins,
			Queries: len(conv),
		})
	}
	return out, nil
}

// Print renders the comparison.
func (c ScorerComparison) Print(w io.Writer) {
	line(w, "Scorer sensitivity (extension) — context-sensitive statistics under every ranking model")
	line(w, "%-20s %12s %12s %10s %10s %10s", "model",
		"conv P@20", "ctx P@20", "conv MRR", "ctx MRR", "ctx wins")
	for _, r := range c.Rows {
		line(w, "%-20s %12.1f %12.1f %10.2f %10.2f %6d/%-3d",
			r.Scorer, r.Conv.MeanPrecision, r.Ctx.MeanPrecision,
			r.Conv.MRR, r.Ctx.MRR, r.CtxWins, r.Queries)
	}
}
