package graph

// Separator is a balanced vertex separator: removing S0 disconnects S1
// from S2 (Definition 4). Indices refer to the graph the separator was
// computed on.
type Separator struct {
	S0, S1, S2 []int
}

// FindBalancedSeparator implements Algorithm 2: for each prefix split of
// the vertex order, attach a source to the prefix and a sink to the
// suffix, compute a minimum s–t *vertex* separator via max-flow on the
// split-vertex network, and return the candidate minimizing |S0|/|E12|
// (ties broken toward smaller |S0|), where E12 counts edges incident to
// S0 or crossing between the sides. Candidates with an empty side are
// discarded — they do not decompose the graph.
//
// The boolean result is false when no decomposing separator exists (e.g.
// the graph is complete or too small).
func FindBalancedSeparator(g *KAG) (Separator, bool) {
	n := g.N()
	if n < 3 {
		return Separator{}, false
	}
	best := Separator{}
	bestRatio := 0.0
	found := false
	for i := 1; i < n; i++ {
		sep, ok := minVertexSeparator(g, i)
		if !ok {
			continue
		}
		e12 := countE12(g, sep)
		if e12 == 0 {
			continue
		}
		ratio := float64(len(sep.S0)) / float64(e12)
		if !found || ratio < bestRatio ||
			(ratio == bestRatio && len(sep.S0) < len(best.S0)) {
			best, bestRatio, found = sep, ratio, true
		}
	}
	return best, found
}

// minVertexSeparator computes a minimum vertex separator between the
// prefix v_0..v_{split-1} and the suffix v_split..v_{n-1} using the
// standard node-splitting reduction: each vertex becomes in→out with
// capacity 1; each undirected edge u–v becomes u_out→v_in and v_out→u_in
// with infinite capacity; the source feeds every prefix v_in and every
// suffix v_out feeds the sink. A minimum cut then saturates only split
// arcs, and those vertices form the separator.
func minVertexSeparator(g *KAG, split int) (Separator, bool) {
	n := g.N()
	inNode := func(v int) int { return 2 * v }
	outNode := func(v int) int { return 2*v + 1 }
	s, t := 2*n, 2*n+1
	f := newFlowNet(2*n + 2)
	for v := 0; v < n; v++ {
		f.addArc(inNode(v), outNode(v), 1)
	}
	for u := 0; u < n; u++ {
		for v := range g.adj[u] {
			// Each undirected edge contributes both directions; the map
			// iteration visits (u,v) and (v,u), adding each arc once.
			f.addArc(outNode(u), inNode(v), inf)
		}
	}
	for v := 0; v < split; v++ {
		f.addArc(s, inNode(v), inf)
	}
	for v := split; v < n; v++ {
		f.addArc(outNode(v), t, inf)
	}
	flow := f.maxflow(s, t)
	if flow >= int64(n) || flow >= inf {
		// No finite vertex cut separates the sides (they share a vertex
		// path through every vertex) — cannot happen with unit split
		// arcs, but guard anyway.
		return Separator{}, false
	}
	reach := f.residualReachable(s)
	var sep Separator
	for v := 0; v < n; v++ {
		switch {
		case reach[inNode(v)] && !reach[outNode(v)]:
			sep.S0 = append(sep.S0, v)
		case reach[inNode(v)]:
			sep.S1 = append(sep.S1, v)
		default:
			sep.S2 = append(sep.S2, v)
		}
	}
	if len(sep.S1) == 0 || len(sep.S2) == 0 {
		return Separator{}, false
	}
	return sep, true
}

// countE12 counts the edges e_{u-v} with u ∈ S1 ∪ S0 and v ∈ S2 ∪ S0 —
// the denominator of Algorithm 2's selection ratio.
func countE12(g *KAG, sep Separator) int {
	side := make([]int, g.N()) // 0 = S1, 1 = S0, 2 = S2
	for _, v := range sep.S0 {
		side[v] = 1
	}
	for _, v := range sep.S2 {
		side[v] = 2
	}
	count := 0
	for u := 0; u < g.N(); u++ {
		for v := range g.adj[u] {
			if v <= u {
				continue
			}
			left := side[u] <= 1 && side[v] >= 1
			right := side[u] >= 1 && side[v] <= 1
			if left || right {
				count++
			}
		}
	}
	return count
}
