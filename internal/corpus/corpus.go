// Package corpus generates the synthetic PubMed-like collection the
// experiments run on. It substitutes for the paper's 18M-citation PubMed
// snapshot and for the TREC Genomics 2007 benchmark (see DESIGN.md):
// citations carry titles, abstracts and MeSH-style annotations with
// ancestor closure; text is drawn from per-term topic language models over
// a Zipfian background vocabulary, so keyword statistics differ strongly
// between contexts — the phenomenon context-sensitive ranking exploits.
//
// The generator also embeds a relevance benchmark: topics with keyword
// queries, ATM-style context specifications and ground-truth relevant
// documents, constructed so that the *statistical* situation of the
// paper's motivating example (a term common globally but discriminative
// inside the context, and vice versa) actually occurs.
package corpus

import (
	"fmt"
	"strings"

	"csrank/internal/analysis"
	"csrank/internal/index"
	"csrank/internal/mesh"
)

// Fit describes how well a topic's mechanically derived context matches
// its information need — the axis the paper identifies as deciding whether
// context-sensitive ranking helps ("ranking effectiveness depends on how
// well a context specification fits the original TREC query").
type Fit int

const (
	// FitGood marks topics whose context matches the info need: the
	// relevant documents emphasize the term that is discriminative inside
	// the context.
	FitGood Fit = iota
	// FitNeutral marks topics with no engineered statistical asymmetry;
	// conventional and context-sensitive rankings differ only by noise.
	FitNeutral
	// FitBad marks topics whose mechanically derived context misleads:
	// the globally rare term is the relevant one, so conventional ranking
	// has the edge.
	FitBad
)

// String implements fmt.Stringer.
func (f Fit) String() string {
	switch f {
	case FitGood:
		return "good"
	case FitNeutral:
		return "neutral"
	case FitBad:
		return "bad"
	default:
		return fmt.Sprintf("Fit(%d)", int(f))
	}
}

// Citation is one synthetic PubMed citation.
type Citation struct {
	// PMID is a synthetic PubMed identifier.
	PMID int
	// Title is a short topical sentence.
	Title string
	// Abstract is the citation body.
	Abstract string
	// Mesh lists annotation term names after ancestor closure ("if a
	// citation is annotated with the term t, all the ancestors of t in
	// the hierarchy are attached to the citation").
	Mesh []string
}

// Topic is one benchmark query with gold-standard relevance, standing in
// for a TREC Genomics topic.
type Topic struct {
	// ID numbers the topic from 1, like the figures' x-axis query IDs.
	ID int
	// Question is the natural-language information need.
	Question string
	// Keywords is the extracted conjunctive keyword query Q_k.
	Keywords []string
	// ContextTerms is the context specification P, as the simulated ATM
	// derives it from the question.
	ContextTerms []string
	// Relevant lists gold-standard relevant document indices.
	Relevant []int
	// Fit records the engineered context/info-need relationship.
	Fit Fit
}

// Corpus is a generated collection plus its benchmark.
type Corpus struct {
	Config Config
	Onto   *mesh.Ontology
	Docs   []Citation
	Topics []Topic

	extent map[mesh.TermID][]int
}

// Schema returns the index schema for this corpus: stored titles, a
// combined searchable content field (title + abstract, the fields the
// paper searches), and the MeSH annotation predicate field.
func Schema() index.Schema {
	return index.Schema{
		Fields: []index.FieldSpec{
			{Name: "title", Analyzer: analysis.Standard(), Stored: true},
			{Name: "content", Analyzer: analysis.Standard()},
			{Name: "mesh", Analyzer: analysis.Keyword()},
		},
		PredicateField: "mesh",
		ContentField:   "content",
	}
}

// IndexDocuments converts the citations into index documents under
// Schema(): content = title + abstract, mesh = space-joined annotations.
func (c *Corpus) IndexDocuments() []index.Document {
	docs := make([]index.Document, len(c.Docs))
	for i, cit := range c.Docs {
		docs[i] = index.Document{Fields: map[string]string{
			"title":   cit.Title,
			"content": cit.Title + " " + cit.Abstract,
			"mesh":    strings.Join(cit.Mesh, " "),
		}}
	}
	return docs
}

// BuildIndex generates the inverted index for the corpus.
func (c *Corpus) BuildIndex(segSize int) (*index.Index, error) {
	return index.BuildFrom(Schema(), segSize, c.IndexDocuments())
}
