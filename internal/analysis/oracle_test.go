package analysis

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// Token is a single unit of text produced by the reference tokenizer,
// together with its position in the token stream (0-based).
type Token struct {
	Term     string
	Position int
}

// Tokenize is the reference tokenizer AppendTerms must agree with: the
// rune-at-a-time, builder-per-token original, kept as the oracle. A token
// is a maximal run of letters, digits, or intra-word hyphens/apostrophes.
// All other runes separate tokens. Hyphens and apostrophes at token
// boundaries are trimmed, so "pancreas-transplant-" yields
// "pancreas-transplant" while "don't" remains one token.
func Tokenize(text string) []Token {
	var tokens []Token
	var b strings.Builder
	pos := 0
	flush := func() {
		if b.Len() == 0 {
			return
		}
		term := strings.Trim(b.String(), "-'")
		b.Reset()
		if term == "" {
			return
		}
		tokens = append(tokens, Token{Term: term, Position: pos})
		pos++
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_':
			b.WriteRune(unicode.ToLower(r))
		case (r == '-' || r == '\'') && b.Len() > 0:
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// referenceAnalyze is the original Analyze: the filter chain over the
// reference tokenizer's output, with the stopword check a plain lookup
// in the list (IsStopword's shape prefilter is under test too).
func referenceAnalyze(a *Analyzer, text string) []string {
	var terms []string
	for _, tok := range Tokenize(text) {
		term := tok.Term
		if a.RemoveStopwords {
			if defaultStopwords[term] || (a.ExtraStopwords != nil && a.ExtraStopwords[term]) {
				continue
			}
		}
		if a.StemTerms {
			if a.UsePorter {
				term = PorterStem(term)
			} else {
				term = Stem(term)
			}
		}
		if term == "" {
			continue
		}
		terms = append(terms, term)
	}
	return terms
}

// oracleAnalyzers are the configurations the oracle comparison covers.
func oracleAnalyzers() map[string]*Analyzer {
	return map[string]*Analyzer{
		"standard": Standard(),
		"keyword":  Keyword(),
		"porter":   {RemoveStopwords: true, StemTerms: true, UsePorter: true},
		"extra":    {RemoveStopwords: true, StemTerms: true, ExtraStopwords: map[string]bool{"ärger": true, "il-2": true, "don't": true}},
	}
}

// checkOracle fails t if any analyzer's AppendTerms disagrees with the
// reference over text — including when appending after existing terms.
func checkOracle(t *testing.T, text string) {
	t.Helper()
	for name, a := range oracleAnalyzers() {
		want := referenceAnalyze(a, text)
		got := a.Analyze(text)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: Analyze(%q) = %q, want %q", name, text, got, want)
		}
		prefix := []string{"sentinel"}
		app := a.AppendTerms(prefix, text)
		if app[0] != "sentinel" || len(app) != 1+len(want) || (len(want) > 0 && !reflect.DeepEqual(app[1:], want)) {
			t.Fatalf("%s: AppendTerms(prefix, %q) = %q, want prefix + %q", name, text, app, want)
		}
	}
}

// oracleAlphabet mixes word characters (ASCII and non-ASCII, with case
// mappings that change byte length or leave ASCII), intra-word
// punctuation, separators and invalid UTF-8.
var oracleAlphabet = []string{
	"a", "e", "s", "z", "A", "E", "S", "Z", "0", "7", "_", "-", "'", "--", "''",
	" ", "\t", "\n", ".", ",", "(", ")", "!",
	"ä", "Ä", "ß", "ẞ", "İ", "ı", "é", "É", "Ω", "ω", "K", "Ⅳ", "٣", "中",
	"́", "‐", "�", "\xff", "\xc3", "\xe2\x82", "\xed\xa0\x80",
	"ies", "sses", "ing", "ed", "the", "The", "THE", "and", "of",
	"studies", "Hopping", "generalizations", "IL-2", "don't", "Ärger",
}

func randomOracleText(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(24); n > 0; n-- {
		b.WriteString(oracleAlphabet[rng.Intn(len(oracleAlphabet))])
	}
	return b.String()
}

// TestAppendTermsMatchesReference: the single-pass scanner and the
// reference tokenizer plus filter chain agree on random text for every
// analyzer configuration.
func TestAppendTermsMatchesReference(t *testing.T) {
	for _, s := range []string{
		"", "-", "'a'", "a-", "a--b", "-a-", "a'-'", "__", "_-_",
		"Complications following PANCREAS transplants",
		"IL-2 receptor (CD25) levels: 3.5x baseline!",
		"İstanbul STRASSE straße Ærø ΟΔΥΣΣΕΥΣ",
		"café café \xffab\xfe Cd\xc3",
	} {
		checkOracle(t, s)
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 20000; i++ {
		checkOracle(t, randomOracleText(rng))
	}
}

// FuzzAnalyze compares AppendTerms with the reference on arbitrary bytes.
func FuzzAnalyze(f *testing.F) {
	for _, s := range []string{
		"", "The complications following pancreas transplants",
		"IL-2 receptor (CD25) levels: 3.5x baseline!", "don't stop 'quoted'",
		"Émile NOËL İ ß ẞ", "a--b- -c' \xff\xfe", "digestive_system",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkOracle(t, s)
	})
}

var benchTerms []string

// BenchmarkAnalyze: lowercase ASCII into a warm buffer must not
// allocate (every term is a substring of the input); mixed-case input
// pays one copy per token that lowercasing changes.
func BenchmarkAnalyze(b *testing.B) {
	lowerText := strings.Repeat("complications following pancreas transplant surgery outcome in patients with acute leukemia ", 8)
	mixedText := strings.Repeat("Complications following PANCREAS transplant: Surgery outcomes in Patients with acute Leukemia. ", 8)
	for _, bc := range []struct {
		name string
		a    *Analyzer
		text string
	}{
		{"keyword/lower", Keyword(), lowerText},
		{"standard/lower", Standard(), lowerText},
		{"standard/mixed", Standard(), mixedText},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.text)))
			b.ReportAllocs()
			buf := bc.a.AppendTerms(nil, bc.text)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = bc.a.AppendTerms(buf[:0], bc.text)
			}
			benchTerms = buf
		})
	}
}

// TestAppendTermsZeroAllocLowercase pins BenchmarkAnalyze's claim.
func TestAppendTermsZeroAllocLowercase(t *testing.T) {
	text := "complications following pancreas transplant surgery outcome in patients with acute leukemia"
	for name, a := range map[string]*Analyzer{"keyword": Keyword(), "standard": Standard()} {
		buf := a.AppendTerms(nil, text)
		if n := testing.AllocsPerRun(100, func() { buf = a.AppendTerms(buf[:0], text) }); n != 0 {
			t.Errorf("%s: %v allocs per AppendTerms into a warm buffer, want 0", name, n)
		}
	}
}
