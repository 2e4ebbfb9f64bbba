package mesh

import "sort"

// This file implements the Automatic Term Mapping (ATM) simulation:
// PubMed's ATM maps free-text query keywords to MeSH terms; the paper uses
// it to mechanically construct context specifications from keyword queries
// ("Given a set of keywords, PubMed's ATM maps them to one or more MeSH
// terms").

// RegisterAlias records that keyword maps to term under ATM. A keyword may
// map to several terms; registration is idempotent.
func (o *Ontology) RegisterAlias(keyword string, term TermID) {
	for _, t := range o.atm[keyword] {
		if t == term {
			return
		}
	}
	o.atm[keyword] = append(o.atm[keyword], term)
}

// RegisterTopicAliases registers every topic word of every term as an ATM
// alias for that term. Call once after the ontology is fully built.
func (o *Ontology) RegisterTopicAliases() {
	for i := range o.terms {
		for _, w := range o.terms[i].TopicWords {
			o.RegisterAlias(w, TermID(i))
		}
	}
}

// MapKeywords simulates ATM over a whole keyword query: each keyword is
// looked up, and the union of mapped terms is returned, deduplicated and
// sorted. When a keyword maps to several terms, all are kept — as in
// PubMed, where ATM expansion is conjunctive over distinct concepts.
func (o *Ontology) MapKeywords(keywords []string) []TermID {
	seen := make(map[TermID]bool)
	for _, kw := range keywords {
		for _, t := range o.atm[kw] {
			seen[t] = true
		}
	}
	out := make([]TermID, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
