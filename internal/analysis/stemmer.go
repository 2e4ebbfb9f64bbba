package analysis

import "strings"

// Stem applies a light English suffix stemmer (an S-stemmer extended with a
// few inflectional endings). It is intentionally conservative: aggressive
// stemming conflates biomedical terms ("pancreatitis" vs "pancreatic") and
// would blur exactly the per-context statistics this system exists to
// exploit. The rules follow Harman's "How effective is suffixing?" S-stemmer
// with -ing/-ed extensions guarded by minimum stem lengths.
func Stem(term string) string {
	n := len(term)
	if n == 0 {
		return term
	}
	if c := term[n-1]; c != 's' && c != 'g' && c != 'd' {
		return term // no rule's suffix ends in another letter
	}
	switch {
	case n > 4 && strings.HasSuffix(term, "ies"):
		// studies -> study; but not "species" (guarded below).
		if !strings.HasSuffix(term, "eies") && !strings.HasSuffix(term, "aies") {
			return term[:n-3] + "y"
		}
	case n > 4 && strings.HasSuffix(term, "sses"):
		// classes -> class
		return term[:n-2]
	case n > 3 && strings.HasSuffix(term, "es") && !strings.HasSuffix(term, "aes") && !strings.HasSuffix(term, "ees") && !strings.HasSuffix(term, "oes"):
		// diseases -> disease
		return term[:n-1]
	case n > 3 && strings.HasSuffix(term, "s") && !strings.HasSuffix(term, "ss") &&
		!strings.HasSuffix(term, "us") && !strings.HasSuffix(term, "is") && !strings.HasSuffix(term, "as"):
		// transplants -> transplant; keeps "pancreas", "diagnosis", "virus".
		return term[:n-1]
	case n > 5 && strings.HasSuffix(term, "ing"):
		stem := term[:n-3]
		if hasVowel(stem) {
			return undouble(stem)
		}
	case n > 4 && strings.HasSuffix(term, "ed"):
		stem := term[:n-2]
		if hasVowel(stem) {
			return undouble(stem)
		}
	}
	return term
}

func hasVowel(s string) bool {
	return strings.ContainsAny(s, "aeiou")
}

// undouble collapses a doubled final consonant left by suffix removal
// ("stopped" -> "stopp" -> "stop"), except letters where doubling is
// usually part of the root (ll, ss, zz).
func undouble(s string) string {
	n := len(s)
	if n < 3 {
		return s
	}
	c := s[n-1]
	if c == s[n-2] && c != 'l' && c != 's' && c != 'z' && !strings.ContainsRune("aeiou", rune(c)) {
		return s[:n-1]
	}
	return s
}
