package ranking

// All returns a fresh instance of every built-in scorer, in the order
// the scorer-sensitivity experiment reports them. It is the one table
// of built-ins: New and Names resolve through it, keyed by Name().
func All() []Scorer {
	return []Scorer{NewPivotedTFIDF(), NewBM25(), NewDirichletLM(), NewJelinekMercerLM(), NewCosineTFIDF()}
}

// New returns a fresh built-in scorer by name; ok is false for an
// unknown name.
func New(name string) (Scorer, bool) {
	for _, sc := range All() {
		if sc.Name() == name {
			return sc, true
		}
	}
	return nil, false
}

// Names returns the built-in scorer names in table order.
func Names() (names []string) {
	for _, sc := range All() {
		names = append(names, sc.Name())
	}
	return names
}
