package corpus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"csrank/internal/analysis"
	"csrank/internal/mesh"
)

// smallConfig keeps generation fast in unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumDocs = 6000
	cfg.OntologyTerms = 150
	cfg.NumTopics = 10
	return cfg
}

var cachedCorpus *Corpus

func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	if cachedCorpus == nil {
		c, err := Generate(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedCorpus = c
	}
	return cachedCorpus
}

func TestGenerateBasics(t *testing.T) {
	c := testCorpus(t)
	if len(c.Docs) != 6000 {
		t.Fatalf("docs = %d", len(c.Docs))
	}
	if len(c.Topics) != 10 {
		t.Fatalf("topics = %d", len(c.Topics))
	}
	if c.Onto.Len() < 150 {
		t.Errorf("ontology = %d terms", c.Onto.Len())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Generate(Config{NumDocs: 0}); err == nil {
		t.Error("zero docs accepted")
	}
	cfg := smallConfig()
	cfg.NumDocs = 100 // far too few for 10 topics
	if _, err := Generate(cfg); err == nil {
		t.Error("too-small corpus accepted")
	}
}

func TestCitationShape(t *testing.T) {
	c := testCorpus(t)
	seenPMID := map[int]bool{}
	for i, d := range c.Docs {
		if d.Title == "" || d.Abstract == "" {
			t.Fatalf("doc %d has empty text", i)
		}
		if len(d.Mesh) == 0 {
			t.Fatalf("doc %d has no annotations", i)
		}
		if seenPMID[d.PMID] {
			t.Fatalf("duplicate PMID %d", d.PMID)
		}
		seenPMID[d.PMID] = true
	}
}

func TestAncestorClosureApplied(t *testing.T) {
	c := testCorpus(t)
	// Every annotation's ancestors must also be annotations.
	for i, d := range c.Docs[:200] {
		have := make(map[string]bool, len(d.Mesh))
		for _, m := range d.Mesh {
			have[m] = true
		}
		for _, m := range d.Mesh {
			id, ok := c.Onto.ByName(m)
			if !ok {
				t.Fatalf("doc %d annotated with unknown term %q", i, m)
			}
			for _, anc := range c.Onto.Ancestors(id) {
				if !have[c.Onto.Term(anc).Name] {
					t.Fatalf("doc %d has %q but not its ancestor %q", i, m, c.Onto.Term(anc).Name)
				}
			}
		}
	}
}

func TestExtentMatchesAnnotations(t *testing.T) {
	c := testCorpus(t)
	// Extent lists exactly the docs carrying the term, ascending.
	var some mesh.TermID = -1
	for t2 := range c.Onto.Len() {
		if len(c.extent[mesh.TermID(t2)]) > 50 {
			some = mesh.TermID(t2)
			break
		}
	}
	if some < 0 {
		t.Fatal("no term with extent > 50")
	}
	name := c.Onto.Term(some).Name
	want := map[int]bool{}
	for i, d := range c.Docs {
		for _, m := range d.Mesh {
			if m == name {
				want[i] = true
			}
		}
	}
	ext := c.extent[some]
	if len(ext) != len(want) {
		t.Fatalf("extent size %d, recount %d", len(ext), len(want))
	}
	prev := -1
	for _, d := range ext {
		if !want[d] {
			t.Fatalf("extent contains %d which lacks annotation", d)
		}
		if d <= prev {
			t.Fatal("extent not ascending")
		}
		prev = d
	}
}

func TestExtentHeavyTailed(t *testing.T) {
	c := testCorpus(t)
	// Some contexts must be large (>10% of docs) and many small — the
	// distribution the view-selection threshold T_C cuts through.
	big, small := 0, 0
	for i := 0; i < c.Onto.Len(); i++ {
		switch n := len(c.extent[mesh.TermID(i)]); {
		case n > len(c.Docs)/10:
			big++
		case n > 0 && n < len(c.Docs)/100:
			small++
		}
	}
	if big < 3 {
		t.Errorf("only %d large contexts", big)
	}
	if small < 20 {
		t.Errorf("only %d small contexts", small)
	}
}

func TestTopicsQualify(t *testing.T) {
	c := testCorpus(t)
	for _, topic := range c.Topics {
		if len(topic.Relevant) < 5 {
			t.Errorf("topic %d: %d relevant docs (paper filter needs ≥ 5)", topic.ID, len(topic.Relevant))
		}
		if len(topic.Keywords) < 2 {
			t.Errorf("topic %d: keywords = %v", topic.ID, topic.Keywords)
		}
		if len(topic.ContextTerms) == 0 {
			t.Errorf("topic %d: no context", topic.ID)
		}
		if topic.Question == "" {
			t.Errorf("topic %d: no question", topic.ID)
		}
	}
}

func TestTopicRelevantDocsMatchQuery(t *testing.T) {
	c := testCorpus(t)
	// Every relevant doc must be in the context extent and contain all
	// query keywords (conjunctive semantics).
	for _, topic := range c.Topics {
		ctxIDs := make([]mesh.TermID, len(topic.ContextTerms))
		for i, name := range topic.ContextTerms {
			id, ok := c.Onto.ByName(name)
			if !ok {
				t.Fatalf("topic %d: unknown context term %q", topic.ID, name)
			}
			ctxIDs[i] = id
		}
		for _, d := range topic.Relevant {
			have := map[string]bool{}
			for _, m := range c.Docs[d].Mesh {
				have[m] = true
			}
			for _, name := range topic.ContextTerms {
				if !have[name] {
					t.Fatalf("topic %d: relevant doc %d outside context %q", topic.ID, d, name)
				}
			}
			text := " " + c.Docs[d].Abstract + " "
			for _, kw := range topic.Keywords {
				if !strings.Contains(text, " "+kw+" ") {
					t.Fatalf("topic %d: relevant doc %d lacks keyword %q", topic.ID, d, kw)
				}
			}
		}
	}
}

func TestTopicFitMix(t *testing.T) {
	c := testCorpus(t)
	counts := map[Fit]int{}
	for _, topic := range c.Topics {
		counts[topic.Fit]++
	}
	if counts[FitGood] == 0 || counts[FitBad] == 0 {
		t.Errorf("fit mix %v lacks a class", counts)
	}
	if counts[FitGood] <= counts[FitBad] {
		t.Errorf("good (%d) should outnumber bad (%d)", counts[FitGood], counts[FitBad])
	}
}

func TestTopicIDsSequential(t *testing.T) {
	c := testCorpus(t)
	for i, topic := range c.Topics {
		if topic.ID != i+1 {
			t.Errorf("topic %d has ID %d", i, topic.ID)
		}
	}
}

func TestTopicDocsDisjoint(t *testing.T) {
	c := testCorpus(t)
	seen := map[int]int{}
	for _, topic := range c.Topics {
		for _, d := range topic.Relevant {
			if prev, ok := seen[d]; ok {
				t.Fatalf("doc %d relevant for topics %d and %d", d, prev, topic.ID)
			}
			seen[d] = topic.ID
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.NumDocs = 3000
	cfg.NumTopics = 5
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Docs {
		if a.Docs[i].Title != b.Docs[i].Title || a.Docs[i].Abstract != b.Docs[i].Abstract {
			t.Fatalf("doc %d differs between runs", i)
		}
	}
	for i := range a.Topics {
		if a.Topics[i].Question != b.Topics[i].Question {
			t.Fatalf("topic %d differs between runs", i)
		}
	}
}

func TestFitString(t *testing.T) {
	if FitGood.String() != "good" || FitNeutral.String() != "neutral" || FitBad.String() != "bad" {
		t.Error("Fit.String wrong")
	}
	if Fit(99).String() == "" {
		t.Error("unknown fit should still render")
	}
}

func TestIndexDocumentsAndBuildIndex(t *testing.T) {
	c := testCorpus(t)
	docs := c.IndexDocuments()
	if len(docs) != len(c.Docs) {
		t.Fatalf("IndexDocuments = %d", len(docs))
	}
	if !strings.Contains(docs[0].Fields["content"], c.Docs[0].Title) {
		t.Error("content should embed title")
	}
	ix, err := c.BuildIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumDocs() != len(c.Docs) {
		t.Fatalf("index docs = %d", ix.NumDocs())
	}
	// Index extents agree with generator extents.
	for i := 0; i < c.Onto.Len(); i += 17 {
		name := c.Onto.Term(mesh.TermID(i)).Name
		if got, want := ix.DF("mesh", name), int64(len(c.extent[mesh.TermID(i)])); got != want {
			t.Fatalf("df(mesh,%s) = %d, extent = %d", name, got, want)
		}
	}
}

// TestTopicStatisticalAsymmetry verifies the engineered statistical
// asymmetry that context-sensitive ranking exploits, stated as the two idf
// inequalities that actually decide the rankings for good-fit topics:
//
//	idf_P(signal) > idf_P(noise)   (signal is discriminative in context)
//	idf_D(noise)  > idf_D(signal)  (conventional ranking overweights noise)
//
// Terms are compared post-analysis (the engine analyzes queries with the
// same pipeline as documents).
func TestTopicStatisticalAsymmetry(t *testing.T) {
	c := testCorpus(t)
	ix, err := c.BuildIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	an := analysis.Standard()
	analyze1 := func(w string) string {
		ts := an.Analyze(w)
		if len(ts) != 1 {
			t.Fatalf("keyword %q analyzed to %v", w, ts)
		}
		return ts[0]
	}
	n := float64(ix.NumDocs())
	idf := func(df, total float64) float64 {
		if df < 1 {
			df = 1
		}
		return math.Log((total + 1) / df)
	}
	checked := 0
	for _, topic := range c.Topics {
		if topic.Fit != FitGood {
			continue
		}
		signal, noise := analyze1(topic.Keywords[0]), analyze1(topic.Keywords[1])
		ctxID, _ := c.Onto.ByName(topic.ContextTerms[0])
		ctxDocs := c.extent[ctxID]
		ctxSize := float64(len(ctxDocs))
		inCtx := make(map[int]bool, len(ctxDocs))
		for _, d := range ctxDocs {
			inCtx[d] = true
		}
		dfCtx := func(w string) float64 {
			l := ix.Postings("content", w)
			if l == nil {
				return 0
			}
			cnt := 0
			l.ForEach(func(d, _ uint32) {
				if inCtx[int(d)] {
					cnt++
				}
			})
			return float64(cnt)
		}
		sigCtx, noiCtx := idf(dfCtx(signal), ctxSize), idf(dfCtx(noise), ctxSize)
		sigGlob := idf(float64(ix.DF("content", signal)), n)
		noiGlob := idf(float64(ix.DF("content", noise)), n)
		if sigCtx <= noiCtx {
			t.Errorf("topic %d: idf_P(signal %q)=%.3f ≤ idf_P(noise %q)=%.3f",
				topic.ID, signal, sigCtx, noise, noiCtx)
		}
		if noiGlob <= sigGlob {
			t.Errorf("topic %d: idf_D(noise %q)=%.3f ≤ idf_D(signal %q)=%.3f",
				topic.ID, noise, noiGlob, signal, sigGlob)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no good-fit topics checked")
	}
}

// readJSONL reads citations written by WriteJSONL: the reference reader
// for the export format. Blank lines are skipped; malformed lines are
// errors.
func readJSONL(r io.Reader) ([]Citation, error) {
	var docs []Citation
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var c Citation
		if err := json.Unmarshal(line, &c); err != nil {
			return nil, fmt.Errorf("corpus: line %d: %w", lineNo, err)
		}
		docs = append(docs, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return docs, nil
}

func TestJSONLRoundTrip(t *testing.T) {
	c := testCorpus(t)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, c.Docs[:100]); err != nil {
		t.Fatal(err)
	}
	got, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d docs", len(got))
	}
	for i := range got {
		if got[i].PMID != c.Docs[i].PMID || got[i].Title != c.Docs[i].Title ||
			got[i].Abstract != c.Docs[i].Abstract ||
			!reflect.DeepEqual(got[i].Mesh, c.Docs[i].Mesh) {
			t.Fatalf("doc %d differs after round trip", i)
		}
	}
}

func TestJSONLFileRoundTrip(t *testing.T) {
	c := testCorpus(t)
	path := t.TempDir() + "/docs.jsonl"
	if err := c.SaveJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := readJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(c.Docs) {
		t.Fatalf("got %d docs, want %d", len(got), len(c.Docs))
	}
}

func TestJSONLErrors(t *testing.T) {
	if _, err := readJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Error("malformed line accepted")
	}
	if got, err := readJSONL(strings.NewReader("\n\n")); err != nil || len(got) != 0 {
		t.Errorf("blank lines: %v, %v", got, err)
	}
}
