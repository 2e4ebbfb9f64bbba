package analysis

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func terms(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Term
	}
	return out
}

// tokens returns the reference tokenizer's terms for text after checking
// that the production scanner (Keyword applies no filter) agrees.
func tokens(t *testing.T, text string) []string {
	t.Helper()
	want := terms(Tokenize(text))
	if got := Keyword().Analyze(text); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("Keyword().Analyze(%q) = %q, reference tokens %q", text, got, want)
	}
	return want
}

func TestTokenizeBasic(t *testing.T) {
	got := tokens(t, "Complications following pancreas transplant")
	want := []string{"complications", "following", "pancreas", "transplant"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizePunctuationAndDigits(t *testing.T) {
	got := tokens(t, "IL-2 receptor (CD25) levels: 3.5x baseline!")
	want := []string{"il-2", "receptor", "cd25", "levels", "3", "5x", "baseline"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeApostrophe(t *testing.T) {
	got := tokens(t, "don't stop 'quoted'")
	want := []string{"don't", "stop", "quoted"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndWhitespace(t *testing.T) {
	if got := tokens(t, ""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v, want empty", got)
	}
	if got := tokens(t, "  \t\n  --- !!! "); len(got) != 0 {
		t.Errorf("Tokenize(whitespace/punct) = %v, want empty", got)
	}
}

func TestTokenizePositionsDense(t *testing.T) {
	toks := Tokenize("acute  lymphoblastic, leukemia")
	for i, tok := range toks {
		if tok.Position != i {
			t.Errorf("token %d has position %d", i, tok.Position)
		}
	}
}

func TestTokenizeLowercasesUnicode(t *testing.T) {
	got := tokens(t, "Émile NOËL")
	want := []string{"émile", "noël"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "of", "and", "is"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"leukemia", "pancreas", "transplant"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"studies":     "study",
		"diseases":    "disease",
		"transplants": "transplant",
		"pancreas":    "pancreas", // -as is not plural
		"diagnosis":   "diagnosis",
		"classes":     "class",
		"stopped":     "stop",
		"running":     "runn", // light stemmer keeps doubled 'n'? no: undoubles
		"infections":  "infection",
		"virus":       "virus",
		"stress":      "stress",
		"caused":      "caus",
		"go":          "go",
	}
	// Correct expectation for running: "running" -> strip "ing" -> "runn" -> undouble -> "run".
	cases["running"] = "run"
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemIdempotentOnCommonForms(t *testing.T) {
	// Stemming an already-stemmed plural form should not keep shrinking
	// common nouns into unrelated stems.
	for _, w := range []string{"disease", "transplant", "infection", "study"} {
		once := Stem(w)
		twice := Stem(once)
		if once != twice {
			t.Errorf("Stem not idempotent for %q: %q then %q", w, once, twice)
		}
	}
}

func TestAnalyzerStandard(t *testing.T) {
	a := Standard()
	got := a.Analyze("The complications following pancreas transplants")
	want := []string{"complication", "follow", "pancreas", "transplant"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Analyze = %v, want %v", got, want)
	}
}

func TestAnalyzerKeywordVerbatim(t *testing.T) {
	a := Keyword()
	got := a.Analyze("Digestive System")
	want := []string{"digestive", "system"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Analyze = %v, want %v", got, want)
	}
}

func TestAnalyzerExtraStopwords(t *testing.T) {
	a := &Analyzer{RemoveStopwords: true, ExtraStopwords: map[string]bool{"pancreas": true}}
	got := a.Analyze("the pancreas transplant")
	want := []string{"transplant"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Analyze = %v, want %v", got, want)
	}
}

func TestAppendTermsCountsAndLength(t *testing.T) {
	a := Standard()
	got := a.AppendTerms(nil, "leukemia leukemia pancreas the of")
	if len(got) != 3 {
		t.Errorf("length = %d, want 3", len(got))
	}
	counts := map[string]int{}
	for _, term := range got {
		counts[term]++
	}
	if counts["leukemia"] != 2 || counts["pancreas"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestAppendTermsEmpty(t *testing.T) {
	a := Standard()
	dst := []string{"kept"}
	if got := a.AppendTerms(dst, ""); len(got) != 1 || got[0] != "kept" {
		t.Errorf("AppendTerms(dst, \"\") = %q", got)
	}
}

// Property: terms never contain uppercase letters or separators, and the
// term stream is deterministic.
func TestTokenizeProperties(t *testing.T) {
	a := Keyword()
	f := func(s string) bool {
		toks := a.Analyze(s)
		for _, term := range toks {
			if term == "" {
				return false
			}
			if term != strings.ToLower(term) {
				return false
			}
			if strings.ContainsAny(term, " \t\n.,;!?") {
				return false
			}
		}
		// Determinism.
		return reflect.DeepEqual(a.Analyze(s), toks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: analyzing into a reused buffer yields exactly what a fresh
// Analyze does, whatever the buffer held before.
func TestAppendTermsReusedBufferProperty(t *testing.T) {
	a := Standard()
	var buf []string
	f := func(s string) bool {
		buf = a.AppendTerms(buf[:0], s)
		return reflect.DeepEqual(buf, a.Analyze(s)) || (len(buf) == 0 && len(a.Analyze(s)) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: stemming never lengthens a term and never empties a non-empty
// term.
func TestStemProperties(t *testing.T) {
	f := func(s string) bool {
		for _, term := range Keyword().Analyze(s) {
			st := Stem(term)
			if len(st) > len(term) {
				return false
			}
			if st == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
