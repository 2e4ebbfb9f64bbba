package core

import "sync/atomic"

// Serving is the indirection between request handlers and the engine
// that answers them. Recovery and snapshot rollover build a complete
// replacement state off to the side (index and catalog loaded) and
// then publish it with one atomic swap; requests
// dereference the pointer once and run entirely against that state, so
// a query never observes half of an old engine and half of a new one.
// The generation tag travels with the engine so operators can correlate
// served results with the snapshot generation that produced them.
type Serving struct {
	state atomic.Pointer[servingState]
}

type servingState struct {
	eng *Engine
	gen uint64
}

// NewServing starts serving eng at the given generation.
func NewServing(eng *Engine, gen uint64) *Serving {
	s := &Serving{}
	s.state.Store(&servingState{eng: eng, gen: gen})
	return s
}

// Generation returns the generation tag of the served engine.
func (s *Serving) Generation() uint64 { return s.state.Load().gen }

// Snapshot returns the engine and its generation as one consistent
// pair (two separate calls could straddle a swap).
func (s *Serving) Snapshot() (*Engine, uint64) {
	st := s.state.Load()
	return st.eng, st.gen
}

// Swap publishes a new engine and generation, returning the previous
// pair. In-flight requests finish on the engine they already hold.
func (s *Serving) Swap(eng *Engine, gen uint64) (*Engine, uint64) {
	old := s.state.Swap(&servingState{eng: eng, gen: gen})
	return old.eng, old.gen
}
