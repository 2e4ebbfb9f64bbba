// Package mesh models a MeSH-like controlled vocabulary: a hierarchy of
// terms (a DAG — a term may appear in several places, as in MeSH), ancestor
// closure for annotation inheritance, ontology navigation, and an
// ATM-style keyword→term mapping (PubMed's Automatic Term Mapping), which
// the experiments use to derive context specifications from keyword
// queries.
//
// The package also generates synthetic ontologies: a curated biomedical
// skeleton (so examples read naturally: "diseases" → "neoplasms",
// "anatomy" → "digestive_system") expanded with seeded synthetic subtrees
// to reach a configurable vocabulary size.
package mesh

import (
	"fmt"
	"sort"
)

// TermID identifies a term within an Ontology. IDs are dense, starting
// at 0, in insertion order.
type TermID int32

// Term is one node of the ontology.
type Term struct {
	ID   TermID
	Name string
	// Parents lists the term's parents; roots have none. MeSH terms may
	// have several parents (the same concept appears in multiple trees).
	Parents []TermID
	// Children lists direct descendants.
	Children []TermID
	// TopicWords are content-vocabulary words characteristic of the
	// concept. The synthetic corpus generator draws document text from
	// them, and the ATM table maps them back to this term.
	TopicWords []string
}

// Ontology is an immutable-after-build vocabulary of terms.
type Ontology struct {
	terms  []Term
	byName map[string]TermID
	atm    map[string][]TermID
}

// NewOntology returns an empty ontology.
func NewOntology() *Ontology {
	return &Ontology{
		byName: make(map[string]TermID),
		atm:    make(map[string][]TermID),
	}
}

// AddTerm inserts a term under the given parents (none for a root) and
// returns its ID. Adding a duplicate name or referencing an unknown parent
// is an error.
func (o *Ontology) AddTerm(name string, parents []TermID, topicWords []string) (TermID, error) {
	if name == "" {
		return 0, fmt.Errorf("mesh: empty term name")
	}
	if _, ok := o.byName[name]; ok {
		return 0, fmt.Errorf("mesh: duplicate term %q", name)
	}
	for _, p := range parents {
		if int(p) < 0 || int(p) >= len(o.terms) {
			return 0, fmt.Errorf("mesh: term %q references unknown parent %d", name, p)
		}
	}
	id := TermID(len(o.terms))
	o.terms = append(o.terms, Term{
		ID:         id,
		Name:       name,
		Parents:    append([]TermID(nil), parents...),
		TopicWords: append([]string(nil), topicWords...),
	})
	for _, p := range parents {
		o.terms[p].Children = append(o.terms[p].Children, id)
	}
	o.byName[name] = id
	return id, nil
}

// Len returns the number of terms.
func (o *Ontology) Len() int { return len(o.terms) }

// Term returns the term with the given ID. It panics on an out-of-range ID,
// which always indicates a programming error (IDs only come from this
// ontology).
func (o *Ontology) Term(id TermID) *Term { return &o.terms[id] }

// ByName resolves a term name to its ID.
func (o *Ontology) ByName(name string) (TermID, bool) {
	id, ok := o.byName[name]
	return id, ok
}

// Roots returns the IDs of all root terms (the MeSH top-level categories).
func (o *Ontology) Roots() []TermID {
	var roots []TermID
	for i := range o.terms {
		if len(o.terms[i].Parents) == 0 {
			roots = append(roots, TermID(i))
		}
	}
	return roots
}

// Ancestors returns the transitive parents of id (excluding id itself),
// deduplicated, in ascending ID order. This implements the annotation
// inheritance of the paper's experiments: "if a citation is annotated with
// the term t, all the ancestors of t in the hierarchy are attached to the
// citation."
func (o *Ontology) Ancestors(id TermID) []TermID {
	seen := make(map[TermID]bool)
	var walk func(TermID)
	walk = func(t TermID) {
		for _, p := range o.terms[t].Parents {
			if !seen[p] {
				seen[p] = true
				walk(p)
			}
		}
	}
	walk(id)
	out := make([]TermID, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Closure returns ids plus all their ancestors, deduplicated and sorted.
// This is the annotation set attached to a citation.
func (o *Ontology) Closure(ids []TermID) []TermID {
	seen := make(map[TermID]bool)
	for _, id := range ids {
		seen[id] = true
		for _, a := range o.Ancestors(id) {
			seen[a] = true
		}
	}
	out := make([]TermID, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Names maps a slice of IDs to their names.
func (o *Ontology) Names(ids []TermID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = o.terms[id].Name
	}
	return out
}

// Depth returns the length of the longest path from a root to id (0 for
// roots).
func (o *Ontology) Depth(id TermID) int {
	best := 0
	for _, p := range o.terms[id].Parents {
		if d := o.Depth(p) + 1; d > best {
			best = d
		}
	}
	return best
}

// Validate checks structural invariants: parent/child symmetry and
// acyclicity. Generated ontologies are validated in tests.
func (o *Ontology) Validate() error {
	for i := range o.terms {
		t := &o.terms[i]
		for _, p := range t.Parents {
			if !containsID(o.terms[p].Children, t.ID) {
				return fmt.Errorf("mesh: %q missing from parent %q's children", t.Name, o.terms[p].Name)
			}
		}
		for _, c := range t.Children {
			if !containsID(o.terms[c].Parents, t.ID) {
				return fmt.Errorf("mesh: %q missing from child %q's parents", t.Name, o.terms[c].Name)
			}
		}
	}
	// Acyclicity via DFS coloring over parent edges.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(o.terms))
	var visit func(TermID) error
	visit = func(id TermID) error {
		color[id] = gray
		for _, p := range o.terms[id].Parents {
			switch color[p] {
			case gray:
				return fmt.Errorf("mesh: cycle through %q", o.terms[p].Name)
			case white:
				if err := visit(p); err != nil {
					return err
				}
			}
		}
		color[id] = black
		return nil
	}
	for i := range o.terms {
		if color[i] == white {
			if err := visit(TermID(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

func containsID(ids []TermID, id TermID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
