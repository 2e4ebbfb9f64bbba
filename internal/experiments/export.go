package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"csrank/internal/core"
	"csrank/internal/query"
	"csrank/internal/trec"
)

// ExportTREC evaluates the benchmark with both rankings and writes the
// standard TREC interchange files into dir (created if missing):
//
//	topics.tsv        the topics (id, question, keywords, context)
//	qrels.txt         gold-standard judgments
//	conventional.run  the baseline ranking
//	context.run       the context-sensitive ranking
//
// External IR tooling (trec_eval-style) can then score the runs
// independently of this repository's own metrics.
func ExportTREC(s *Setup, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var topics []trec.TopicFile
	qrels := make(map[int]trec.Qrels)
	var convRun, ctxRun []trec.RunEntry
	for _, topic := range s.Corpus.Topics {
		topics = append(topics, trec.TopicFile{
			ID:       topic.ID,
			Question: topic.Question,
			Keywords: topic.Keywords,
			Context:  topic.ContextTerms,
		})
		qrels[topic.ID] = trec.NewQrels(topic.Relevant)

		q := query.Query{Keywords: topic.Keywords, Context: topic.ContextTerms}
		conv, _, err := s.WithViews.Search(context.Background(), q, 1000, core.PlanConventional)
		if err != nil {
			return fmt.Errorf("experiments: export topic %d: %w", topic.ID, err)
		}
		ctx, _, err := s.WithViews.Search(context.Background(), q, 1000, "")
		if err != nil {
			return fmt.Errorf("experiments: export topic %d: %w", topic.ID, err)
		}
		convRun = append(convRun, runEntries(topic.ID, conv)...)
		ctxRun = append(ctxRun, runEntries(topic.ID, ctx)...)
	}

	if err := writeFile(filepath.Join(dir, "topics.tsv"), func(f *os.File) error {
		return trec.WriteTopics(f, topics)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "qrels.txt"), func(f *os.File) error {
		return trec.WriteQrels(f, qrels)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "conventional.run"), func(f *os.File) error {
		return trec.WriteRun(f, "csrank-conventional", convRun)
	}); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, "context.run"), func(f *os.File) error {
		return trec.WriteRun(f, "csrank-context", ctxRun)
	})
}

func runEntries(topic int, rs []core.Result) []trec.RunEntry {
	ranked := make([]int, len(rs))
	scores := make([]float64, len(rs))
	for i, r := range rs {
		ranked[i] = int(r.DocID)
		scores[i] = r.Score
	}
	return trec.RankedToEntries(topic, ranked, scores)
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
