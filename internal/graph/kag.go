// Package graph implements the Keyword Association Graph machinery of
// §5.2: the KAG itself (vertices = frequent predicate terms, weighted
// edges = document co-occurrence counts), minimum s–t vertex separators
// via max-flow on the split-vertex graph, the balanced-separator search of
// Algorithm 2, and the recursive top-down decomposition with both edge
// replication schemes.
package graph

import (
	"fmt"
	"sort"
)

// KAG is a keyword association graph. Vertices are identified by index;
// Names maps them back to predicate terms. Edges are undirected with
// positive weights (co-occurrence counts); edges below the selection
// threshold T_C are expected to be filtered out by the builder ("edges
// whose weights are less than T_C can be removed from the graph").
type KAG struct {
	names  []string
	adj    []map[int]int64 // adj[u][v] = weight
	nEdges int
}

// NewKAG creates a graph with the given vertex names and no edges.
func NewKAG(names []string) *KAG {
	g := &KAG{
		names: append([]string(nil), names...),
		adj:   make([]map[int]int64, len(names)),
	}
	for i := range g.adj {
		g.adj[i] = make(map[int]int64)
	}
	return g
}

// Build constructs a KAG from a co-occurrence oracle: names are the
// frequent predicate terms, cooc(i, j) returns their document
// co-occurrence count, and edges with weight < tc are omitted.
func Build(names []string, cooc func(i, j int) int64, tc int64) *KAG {
	g := NewKAG(names)
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if w := cooc(i, j); w >= tc {
				// Each unordered pair {i, j}, i < j, is visited once, so
				// AddEdge cannot fail.
				_ = g.AddEdge(i, j, w)
			}
		}
	}
	return g
}

// N returns the vertex count.
func (g *KAG) N() int { return len(g.names) }

// Name returns the predicate term of vertex v.
func (g *KAG) Name(v int) string { return g.names[v] }

// Names returns the vertex names of the given indices (all vertices if
// idx is nil).
func (g *KAG) Names(idx []int) []string {
	if idx == nil {
		return append([]string(nil), g.names...)
	}
	out := make([]string, len(idx))
	for i, v := range idx {
		out[i] = g.names[v]
	}
	return out
}

// AddEdge inserts an undirected edge. Malformed inserts are rejected with
// an error instead of crashing the caller: a self-loop is never valid in
// a co-occurrence graph, and a duplicate insert with a conflicting weight
// means two builders disagree about the same co-occurrence count. A
// duplicate insert with the same weight is an idempotent no-op, so
// mining pipelines that rediscover an edge (e.g. from both endpoints)
// need no dedup bookkeeping of their own.
func (g *KAG) AddEdge(u, v int, w int64) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d (%s)", u, g.names[u])
	}
	if old, dup := g.adj[u][v]; dup {
		if old == w {
			return nil
		}
		return fmt.Errorf("graph: conflicting duplicate edge %d-%d: weight %d vs existing %d", u, v, w, old)
	}
	g.adj[u][v] = w
	g.adj[v][u] = w
	g.nEdges++
	return nil
}

// HasEdge reports whether u and v are adjacent.
func (g *KAG) HasEdge(u, v int) bool {
	_, ok := g.adj[u][v]
	return ok
}

// IsClique reports whether the graph is complete. Singletons and the
// empty graph are cliques.
func (g *KAG) IsClique() bool {
	n := g.N()
	return g.nEdges == n*(n-1)/2
}

// ConnectedComponents returns the vertex sets of the graph's connected
// components, each ascending, ordered by smallest vertex. The first
// decomposition step considers components independently.
func (g *KAG) ConnectedComponents() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for start := 0; start < g.N(); start++ {
		if seen[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for u := range g.adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Induced returns the subgraph induced by vertices (which keeps all edges
// among them). Vertex order in the result follows the input order.
func (g *KAG) Induced(vertices []int) *KAG {
	sub := NewKAG(g.Names(vertices))
	pos := make(map[int]int, len(vertices))
	for i, v := range vertices {
		pos[v] = i
	}
	for i, v := range vertices {
		for u, w := range g.adj[v] {
			if j, ok := pos[u]; ok && j > i {
				// j > i filters each adjacency to one direction, so every
				// pair arrives exactly once and AddEdge cannot fail.
				_ = sub.AddEdge(i, j, w)
			}
		}
	}
	return sub
}
