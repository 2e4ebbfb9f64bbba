package analysis

import (
	"testing"
	"testing/quick"
)

// TestPorterKnownVectors checks the implementation against pairs from the
// canonical Porter test vocabulary (voc.txt → output.txt).
func TestPorterKnownVectors(t *testing.T) {
	cases := map[string]string{
		// Step 1a.
		"caresses": "caress",
		"ponies":   "poni",
		"ties":     "ti",
		"caress":   "caress",
		"cats":     "cat",
		// Step 1b.
		"feed":      "feed",
		"agreed":    "agre",
		"plastered": "plaster",
		"bled":      "bled",
		"motoring":  "motor",
		"sing":      "sing",
		"conflated": "conflat",
		"troubled":  "troubl",
		"sized":     "size",
		"hopping":   "hop",
		"tanned":    "tan",
		"falling":   "fall",
		"hissing":   "hiss",
		"fizzed":    "fizz",
		"failing":   "fail",
		"filing":    "file",
		// Step 1c.
		"happy": "happi",
		"sky":   "sky",
		// Step 2.
		"relational":     "relat",
		"conditional":    "condit",
		"rational":       "ration",
		"valenci":        "valenc",
		"hesitanci":      "hesit",
		"digitizer":      "digit",
		"conformabli":    "conform",
		"radicalli":      "radic",
		"differentli":    "differ",
		"vileli":         "vile",
		"analogousli":    "analog",
		"vietnamization": "vietnam",
		"predication":    "predic",
		"operator":       "oper",
		"feudalism":      "feudal",
		"decisiveness":   "decis",
		"hopefulness":    "hope",
		"callousness":    "callous",
		"formaliti":      "formal",
		"sensitiviti":    "sensit",
		"sensibiliti":    "sensibl",
		// Step 3.
		"triplicate":  "triplic",
		"formative":   "form",
		"formalize":   "formal",
		"electriciti": "electr",
		"electrical":  "electr",
		"hopeful":     "hope",
		"goodness":    "good",
		// Step 4.
		"revival":     "reviv",
		"allowance":   "allow",
		"inference":   "infer",
		"airliner":    "airlin",
		"gyroscopic":  "gyroscop",
		"adjustable":  "adjust",
		"defensible":  "defens",
		"irritant":    "irrit",
		"replacement": "replac",
		"adjustment":  "adjust",
		"dependent":   "depend",
		"adoption":    "adopt",
		"homologou":   "homolog",
		"communism":   "commun",
		"activate":    "activ",
		"angulariti":  "angular",
		"homologous":  "homolog",
		"effective":   "effect",
		"bowdlerize":  "bowdler",
		// Step 5.
		"probate":  "probat",
		"rate":     "rate",
		"cease":    "ceas",
		"controll": "control",
		"roll":     "roll",
		// Common words.
		"generalizations": "gener",
		"oscillators":     "oscil",
		"university":      "univers",
		"universal":       "univers",
	}
	for in, want := range cases {
		if got := PorterStem(in); got != want {
			t.Errorf("PorterStem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPorterShortWordsUntouched(t *testing.T) {
	for _, w := range []string{"a", "is", "be", "we"} {
		if got := PorterStem(w); got != w {
			t.Errorf("PorterStem(%q) = %q", w, got)
		}
	}
}

// Property: Porter never lengthens a word beyond +1 (the only growth is
// the restored 'e' in step 1b) and never empties words of length > 2.
func TestPorterProperties(t *testing.T) {
	f := func(s string) bool {
		for _, term := range Keyword().Analyze(s) {
			got := PorterStem(term)
			if len(got) > len(term)+1 {
				return false
			}
			if len(term) > 2 && got == "" {
				return false
			}
			// Idempotence is not guaranteed by Porter in general, but
			// determinism is.
			if PorterStem(term) != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzerWithPorter(t *testing.T) {
	a := &Analyzer{RemoveStopwords: true, StemTerms: true, UsePorter: true}
	got := a.Analyze("the generalizations of oscillators")
	if len(got) != 2 || got[0] != "gener" || got[1] != "oscil" {
		t.Errorf("Analyze = %v", got)
	}
}
