package analysis

// defaultStopwords is a compact English stopword list. It mirrors the kind
// of list standard text-search systems (e.g. Lucene's StandardAnalyzer) ship
// with: high-frequency function words that carry no topical signal. Removing
// them matters for the ranking-quality experiments because stopword df
// values would otherwise dominate collection statistics.
var defaultStopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"if": true, "in": true, "into": true, "is": true, "it": true, "its": true,
	"no": true, "not": true, "of": true, "on": true, "or": true,
	"such": true, "that": true, "the": true, "their": true, "then": true,
	"there": true, "these": true, "they": true, "this": true, "to": true,
	"was": true, "were": true, "will": true, "with": true, "we": true,
	"our": true, "has": true, "have": true, "had": true, "which": true,
	"during": true, "after": true, "before": true, "between": true,
	"among": true, "within": true, "using": true, "based": true,
	"can": true, "may": true, "also": true, "been": true, "than": true,
	"more": true, "most": true, "both": true, "each": true, "other": true,
	"who": true, "whom": true, "what": true, "when": true, "where": true,
	"how": true, "all": true, "any": true, "do": true, "does": true,
	"did": true, "so": true, "because": true, "while": true, "about": true,
	"against": true, "under": true, "over": true, "through": true,
	"per": true, "via": true, "however": true, "therefore": true,
	"thus": true, "upon": true,
}

// stopwordShapes[n] has bit c set when some default stopword has length n
// and first letter 'a'+c: most terms fail this test and skip the map.
var stopwordShapes = func() (shapes [16]uint32) {
	for w := range defaultStopwords {
		shapes[len(w)] |= 1 << (w[0] - 'a')
	}
	return shapes
}()

// IsStopword reports whether term is in the default stopword list. The term
// must already be lowercased (the analyzer lowercases).
func IsStopword(term string) bool {
	if len(term) == 0 || len(term) >= len(stopwordShapes) {
		return false
	}
	if c := term[0] - 'a'; c >= 26 || stopwordShapes[len(term)]&(1<<c) == 0 {
		return false
	}
	return defaultStopwords[term]
}
