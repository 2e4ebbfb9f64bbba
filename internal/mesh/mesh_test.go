package mesh

import (
	"reflect"
	"testing"
	"testing/quick"
)

// buildDiamond returns the ontology
//
//	root
//	├── a ──┐
//	└── b ──┴── c (two parents)
//	          └── d
func buildDiamond(t *testing.T) (*Ontology, map[string]TermID) {
	t.Helper()
	o := NewOntology()
	ids := make(map[string]TermID)
	add := func(name string, parents ...string) {
		var ps []TermID
		for _, p := range parents {
			ps = append(ps, ids[p])
		}
		id, err := o.AddTerm(name, ps, []string{name + "_word"})
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
	}
	add("root")
	add("a", "root")
	add("b", "root")
	add("c", "a", "b")
	add("d", "c")
	return o, ids
}

func TestAddTermErrors(t *testing.T) {
	o := NewOntology()
	if _, err := o.AddTerm("", nil, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := o.AddTerm("x", []TermID{99}, nil); err == nil {
		t.Error("unknown parent accepted")
	}
	if _, err := o.AddTerm("x", nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddTerm("x", nil, nil); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestHierarchyNavigation(t *testing.T) {
	o, ids := buildDiamond(t)
	if o.Len() != 5 {
		t.Fatalf("Len = %d", o.Len())
	}
	if got := o.Roots(); !reflect.DeepEqual(got, []TermID{ids["root"]}) {
		t.Errorf("Roots = %v", got)
	}
	root := o.Term(ids["root"])
	if len(root.Children) != 2 {
		t.Errorf("root children = %v", root.Children)
	}
	if id, ok := o.ByName("c"); !ok || id != ids["c"] {
		t.Error("ByName failed")
	}
	if _, ok := o.ByName("zzz"); ok {
		t.Error("ByName found nonexistent term")
	}
}

func TestAncestorsDiamond(t *testing.T) {
	o, ids := buildDiamond(t)
	anc := o.Ancestors(ids["d"])
	want := []TermID{ids["root"], ids["a"], ids["b"], ids["c"]}
	if !reflect.DeepEqual(anc, want) {
		t.Errorf("Ancestors(d) = %v, want %v", anc, want)
	}
	if got := o.Ancestors(ids["root"]); len(got) != 0 {
		t.Errorf("Ancestors(root) = %v", got)
	}
}

func TestClosure(t *testing.T) {
	o, ids := buildDiamond(t)
	got := o.Closure([]TermID{ids["d"]})
	want := []TermID{ids["root"], ids["a"], ids["b"], ids["c"], ids["d"]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Closure = %v, want %v", got, want)
	}
	// Closure of multiple overlapping terms deduplicates.
	got = o.Closure([]TermID{ids["a"], ids["c"]})
	want = []TermID{ids["root"], ids["a"], ids["b"], ids["c"]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Closure = %v, want %v", got, want)
	}
}

func TestDepth(t *testing.T) {
	o, ids := buildDiamond(t)
	if d := o.Depth(ids["root"]); d != 0 {
		t.Errorf("Depth(root) = %d", d)
	}
	if d := o.Depth(ids["d"]); d != 3 {
		t.Errorf("Depth(d) = %d, want 3", d)
	}
}

func TestNames(t *testing.T) {
	o, ids := buildDiamond(t)
	got := o.Names([]TermID{ids["c"], ids["a"]})
	if !reflect.DeepEqual(got, []string{"c", "a"}) {
		t.Errorf("Names = %v", got)
	}
}

func TestValidateDetectsAsymmetry(t *testing.T) {
	o, ids := buildDiamond(t)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: remove a child link.
	o.terms[ids["root"]].Children = o.terms[ids["root"]].Children[:1]
	if err := o.Validate(); err == nil {
		t.Error("Validate missed asymmetry")
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	o, ids := buildDiamond(t)
	// Corrupt: make root a child of d (cycle).
	o.terms[ids["root"]].Parents = append(o.terms[ids["root"]].Parents, ids["d"])
	o.terms[ids["d"]].Children = append(o.terms[ids["d"]].Children, ids["root"])
	if err := o.Validate(); err == nil {
		t.Error("Validate missed cycle")
	}
}

func TestATM(t *testing.T) {
	o, ids := buildDiamond(t)
	o.RegisterTopicAliases()
	if got := o.MapKeywords([]string{"c_word"}); !reflect.DeepEqual(got, []TermID{ids["c"]}) {
		t.Errorf("MapKeywords(c_word) = %v", got)
	}
	if got := o.MapKeywords([]string{"nope"}); len(got) != 0 {
		t.Errorf("MapKeywords(nope) = %v", got)
	}
	got := o.MapKeywords([]string{"a_word", "c_word", "unknown"})
	want := []TermID{ids["a"], ids["c"]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MapKeywords = %v, want %v", got, want)
	}
}

func TestATMIdempotentRegistration(t *testing.T) {
	o, ids := buildDiamond(t)
	o.RegisterAlias("kw", ids["a"])
	o.RegisterAlias("kw", ids["a"])
	if got := o.MapKeywords([]string{"kw"}); len(got) != 1 {
		t.Errorf("duplicate registration: %v", got)
	}
	o.RegisterAlias("kw", ids["b"])
	if got := o.MapKeywords([]string{"kw"}); len(got) != 2 {
		t.Errorf("second term not registered: %v", got)
	}
	if len(o.atm) != 1 {
		t.Errorf("%d alias keywords, want 1", len(o.atm))
	}
}

func TestGenerateSkeletonOnly(t *testing.T) {
	o, err := Generate(GenConfig{Seed: 1, TargetTerms: 0})
	if err != nil {
		t.Fatal(err)
	}
	// The curated skeleton alone.
	if _, ok := o.ByName("digestive_system"); !ok {
		t.Error("curated term digestive_system missing")
	}
	if _, ok := o.ByName("neoplasms"); !ok {
		t.Error("curated term neoplasms missing")
	}
	if err := o.Validate(); err != nil {
		t.Error(err)
	}
	// ATM knows the curated topic words.
	terms := o.MapKeywords([]string{"pancreas"})
	if len(terms) != 1 || o.Term(terms[0]).Name != "digestive_system" {
		t.Errorf("ATM(pancreas) = %v", o.Names(terms))
	}
	terms = o.MapKeywords([]string{"leukemia"})
	if len(terms) != 1 || o.Term(terms[0]).Name != "neoplasms" {
		t.Errorf("ATM(leukemia) = %v", o.Names(terms))
	}
}

func TestGenerateScales(t *testing.T) {
	o, err := Generate(GenConfig{Seed: 42, TargetTerms: 500})
	if err != nil {
		t.Fatal(err)
	}
	if o.Len() < 500 {
		t.Errorf("Len = %d, want ≥ 500", o.Len())
	}
	if err := o.Validate(); err != nil {
		t.Error(err)
	}
	// Depth bound respected.
	for i := 0; i < o.Len(); i++ {
		if d := o.Depth(TermID(i)); d > 5 {
			t.Fatalf("term %d depth %d exceeds bound", i, d)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{Seed: 7, TargetTerms: 300})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{Seed: 7, TargetTerms: 300})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ta, tb := a.Term(TermID(i)), b.Term(TermID(i))
		if ta.Name != tb.Name || !reflect.DeepEqual(ta.Parents, tb.Parents) {
			t.Fatalf("term %d differs: %+v vs %+v", i, ta, tb)
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(GenConfig{Seed: 1, TargetTerms: 200})
	b, _ := Generate(GenConfig{Seed: 2, TargetTerms: 200})
	same := true
	for i := 0; i < a.Len() && i < b.Len(); i++ {
		if a.Term(TermID(i)).Name != b.Term(TermID(i)).Name {
			same = false
			break
		}
	}
	if same && a.Len() == b.Len() {
		t.Error("different seeds produced identical ontologies")
	}
}

// Property: ancestors never contain the term itself and are closed under
// the parent relation.
func TestAncestorsClosedProperty(t *testing.T) {
	o, err := Generate(GenConfig{Seed: 3, TargetTerms: 400})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		id := TermID(int(raw) % o.Len())
		anc := o.Ancestors(id)
		set := make(map[TermID]bool, len(anc))
		for _, a := range anc {
			if a == id {
				return false
			}
			set[a] = true
		}
		for _, a := range anc {
			for _, p := range o.Term(a).Parents {
				if !set[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWordGenUniquePronounceable(t *testing.T) {
	o, err := Generate(GenConfig{Seed: 9, TargetTerms: 600})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < o.Len(); i++ {
		name := o.Term(TermID(i)).Name
		if seen[name] {
			t.Fatalf("duplicate term name %q", name)
		}
		seen[name] = true
		if len(name) < 4 && len(o.Term(TermID(i)).Parents) > 0 {
			t.Errorf("suspiciously short generated name %q", name)
		}
	}
}
