package experiments

import (
	"context"
	"io"

	"csrank/internal/core"
	"csrank/internal/query"
	"csrank/internal/trec"
)

// Fig6Row is one query of Figure 6: precision@20 and reciprocal rank for
// the conventional and the context-sensitive ranking of the same query.
type Fig6Row struct {
	QueryID  int
	Fit      string
	ConvP20  int
	CtxP20   int
	ConvRR   float64
	CtxRR    float64
	RelTotal int
	Results  int
}

// Fig6Result is the full Figure 6 dataset plus the §6.1 summary
// statistics (mean precision, mean reciprocal rank, win/loss/tie counts).
type Fig6Result struct {
	Rows                          []Fig6Row
	ConvSummary, CtxSummary       trec.Summary
	CtxWinsP20, Ties, ConvWinsP20 int
	Disqualified                  int
}

// RunFig6 evaluates every benchmark topic under both rankings with the
// paper's qualification filters and K = 20.
func RunFig6(s *Setup) (Fig6Result, error) {
	var out Fig6Result
	var convResults, ctxResults []trec.TopicResult
	for _, topic := range s.Corpus.Topics {
		q := query.Query{Keywords: topic.Keywords, Context: topic.ContextTerms}
		qrels := trec.NewQrels(topic.Relevant)

		conv, convSt, err := s.WithViews.SearchConventionalCtx(context.Background(), q, 0)
		if err != nil {
			return out, err
		}
		ctx, _, err := s.WithViews.SearchCtx(context.Background(), q, 0)
		if err != nil {
			return out, err
		}
		if !trec.Qualifies(convSt.ResultSize, len(topic.Relevant)) {
			out.Disqualified++
			continue
		}
		cr := trec.Evaluate(topic.ID, docIDs(conv), qrels)
		xr := trec.Evaluate(topic.ID, docIDs(ctx), qrels)
		convResults = append(convResults, cr)
		ctxResults = append(ctxResults, xr)
		out.Rows = append(out.Rows, Fig6Row{
			QueryID:  topic.ID,
			Fit:      topic.Fit.String(),
			ConvP20:  cr.PrecisionAt20,
			CtxP20:   xr.PrecisionAt20,
			ConvRR:   cr.ReciprocalRank,
			CtxRR:    xr.ReciprocalRank,
			RelTotal: len(topic.Relevant),
			Results:  convSt.ResultSize,
		})
		switch {
		case xr.PrecisionAt20 > cr.PrecisionAt20:
			out.CtxWinsP20++
		case xr.PrecisionAt20 < cr.PrecisionAt20:
			out.ConvWinsP20++
		default:
			out.Ties++
		}
	}
	out.ConvSummary = trec.Summarize(convResults)
	out.CtxSummary = trec.Summarize(ctxResults)
	return out, nil
}

func docIDs(rs []core.Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = int(r.DocID)
	}
	return out
}

// Print renders the Figure 6 series (6a/6b: precision@20; 6c/6d:
// reciprocal rank) and the summary quoted in §6.1.
func (r Fig6Result) Print(w io.Writer) {
	line(w, "Figure 6 — ranking quality of top 20 results (%d qualifying queries, %d disqualified)",
		len(r.Rows), r.Disqualified)
	line(w, "%-5s %-8s %12s %12s %10s %10s", "QID", "fit", "conv P@20", "ctx P@20", "conv RR", "ctx RR")
	for _, row := range r.Rows {
		line(w, "%-5d %-8s %12d %12d %10.2f %10.2f",
			row.QueryID, row.Fit, row.ConvP20, row.CtxP20, row.ConvRR, row.CtxRR)
	}
	line(w, "mean precision@20: conventional %.1f, context-sensitive %.1f  (paper: 7.9 → 10.2)",
		r.ConvSummary.MeanPrecision, r.CtxSummary.MeanPrecision)
	line(w, "mean reciprocal rank: conventional %.2f, context-sensitive %.2f  (paper: 0.62 → 0.78)",
		r.ConvSummary.MRR, r.CtxSummary.MRR)
	line(w, "context-sensitive wins %d / ties %d / losses %d of %d  (paper: wins 21 of 30)",
		r.CtxWinsP20, r.Ties, r.ConvWinsP20, len(r.Rows))
}
