// Package analysis provides the text-analysis pipeline used when indexing
// and querying documents: tokenization, case folding, stopword removal and
// light stemming. The pipeline is deliberately simple — the paper's
// contribution is statistics computation, not linguistic analysis — but it
// is a real pipeline: the same analyzer must be applied at indexing time and
// at query time or document-frequency lookups silently miss.
package analysis

import (
	"unicode"
	"unicode/utf8"
)

// Analyzer is a configurable text-analysis pipeline: tokenize, then
// optionally drop stopwords, then optionally stem. The zero value is a
// bare tokenizer; use Standard for the pipeline the engine indexes with.
// An Analyzer holds no mutable state and is safe for concurrent use.
type Analyzer struct {
	// RemoveStopwords drops tokens in the stopword list.
	RemoveStopwords bool
	// StemTerms applies a stemmer to each surviving token: the light
	// S-stemmer by default, or full Porter when UsePorter is set.
	StemTerms bool
	// UsePorter selects the classic Porter algorithm instead of the light
	// stemmer when StemTerms is set. Porter conflates more aggressively —
	// fine for general retrieval, blurrier for per-context statistics.
	UsePorter bool
	// ExtraStopwords, if non-nil, is consulted in addition to the default
	// list when RemoveStopwords is set.
	ExtraStopwords map[string]bool
}

// Standard returns the analyzer used for document content fields: stopword
// removal plus light stemming.
func Standard() *Analyzer {
	return &Analyzer{RemoveStopwords: true, StemTerms: true}
}

// Keyword returns the analyzer used for predicate fields (e.g. MeSH
// annotations): terms are indexed verbatim apart from lowercasing, because
// context predicates come from a controlled vocabulary and must round-trip
// exactly.
func Keyword() *Analyzer {
	return &Analyzer{}
}

// Analyze runs the pipeline over text and returns the surviving terms in
// order.
func (a *Analyzer) Analyze(text string) []string {
	return a.AppendTerms(nil, text)
}

// lowerWord marks the ASCII word bytes lowercasing leaves alone: a–z,
// 0–9 and '_' (so controlled-vocabulary terms like "digestive_system"
// survive intact).
var lowerWord = func() (t [256]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_'
	}
	return t
}()

// AppendTerms runs the pipeline over text and appends the surviving terms
// to dst in order; len(result)-len(dst) is the field length ranking
// functions use. Callers that analyze many texts pass the previous
// result's dst[:0] so the slice is reused.
//
// Tokens are maximal runs of letters, digits, underscores and intra-word
// hyphens or apostrophes (a token starts with a word character; trailing
// hyphens and apostrophes are trimmed), lowercased by simple Unicode case
// mapping. Any other rune, including every byte of invalid UTF-8,
// separates tokens. A token whose runes are already lower case is
// returned as a substring of text — no copy — so the terms alias text;
// callers that keep a term beyond text's lifetime must clone it. Only
// tokens that lowercasing changes are copied.
func (a *Analyzer) AppendTerms(dst []string, text string) []string {
	start := -1    // byte offset of the open token, -1 when none is open
	upper := false // the open token has a rune lowercasing changes
	for i := 0; i < len(text); {
		c := text[i]
		if c < utf8.RuneSelf {
			switch {
			case lowerWord[c]:
				if start < 0 {
					start = i
				}
				// Consume the rest of the run: the common case.
				for i++; i < len(text) && lowerWord[text[i]]; i++ {
				}
				continue
			case 'A' <= c && c <= 'Z':
				if start < 0 {
					start = i
				}
				upper = true
			case c == '-' || c == '\'':
				// Intra-word punctuation stays while a token is open and
				// is trimmed below if it turns out to be trailing.
			default:
				if start >= 0 {
					dst = a.emit(dst, text[start:i], upper)
					start, upper = -1, false
				}
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			if unicode.ToLower(r) != r {
				upper = true
			}
		} else if start >= 0 {
			dst = a.emit(dst, text[start:i], upper)
			start, upper = -1, false
		}
		i += size
	}
	if start >= 0 {
		dst = a.emit(dst, text[start:], upper)
	}
	return dst
}

// emit trims tok's trailing hyphens and apostrophes (it starts with a word
// character),
// lowercases it if upper, and appends it to dst unless the stopword
// filter drops it, stemming it first when configured.
func (a *Analyzer) emit(dst []string, tok string, upper bool) []string {
	n := len(tok)
	for n > 0 && (tok[n-1] == '-' || tok[n-1] == '\'') {
		n--
	}
	term := tok[:n]
	if upper {
		term = lower(term)
	}
	if a.RemoveStopwords {
		if IsStopword(term) || (a.ExtraStopwords != nil && a.ExtraStopwords[term]) {
			return dst
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
		return dst
	}
	return append(dst, term)
}

// lower returns a lowercased copy of a token (valid UTF-8: invalid bytes
// never join a token), mapping rune by rune with unicode.ToLower.
func lower(tok string) string {
	var small [64]byte
	buf := small[:0]
	for i := 0; i < len(tok); {
		c := tok[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			buf = append(buf, c)
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(tok[i:])
		buf = utf8.AppendRune(buf, unicode.ToLower(r))
		i += size
	}
	return string(buf)
}
