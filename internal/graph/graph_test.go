package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("m%02d", i)
	}
	return out
}

// pathGraph: 0-1-2-...-n-1.
func pathGraph(n int) *KAG {
	g := NewKAG(names(n))
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 10)
	}
	return g
}

// completeGraph on n vertices.
func completeGraph(n int) *KAG {
	g := NewKAG(names(n))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 10)
		}
	}
	return g
}

// barbell: two k-cliques joined through a single bridge vertex.
func barbell(k int) *KAG {
	n := 2*k + 1
	g := NewKAG(names(n))
	bridge := k
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.AddEdge(i, j, 10)
		}
		g.AddEdge(i, bridge, 10)
	}
	for i := k + 1; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 10)
		}
		g.AddEdge(bridge, i, 10)
	}
	return g
}

func TestKAGBasics(t *testing.T) {
	g := pathGraph(4)
	if g.N() != 4 || g.nEdges != 3 {
		t.Fatalf("N=%d E=%d", g.N(), g.nEdges)
	}
	if !g.HasEdge(1, 2) || g.HasEdge(0, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge wrong")
	}
	if g.adj[0][1] != 10 || g.adj[1][0] != 10 {
		t.Error("weight wrong")
	}
	if len(g.adj[0]) != 1 || len(g.adj[1]) != 2 {
		t.Error("degree wrong")
	}
	if g.Name(2) != "m02" {
		t.Error("Name wrong")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := pathGraph(3)
	if err := g.AddEdge(1, 1, 5); err == nil {
		t.Error("self-loop: expected error")
	}
	// Re-inserting an existing edge with the same weight is an idempotent
	// no-op: no error, no edge-count change.
	before := g.nEdges
	if err := g.AddEdge(0, 1, 10); err != nil {
		t.Errorf("idempotent re-insert: unexpected error %v", err)
	}
	if g.nEdges != before {
		t.Errorf("idempotent re-insert changed edge count: %d -> %d", before, g.nEdges)
	}
	// A conflicting weight for an existing edge is a builder bug and must
	// be reported, not silently overwrite.
	if err := g.AddEdge(0, 1, 5); err == nil {
		t.Error("conflicting duplicate: expected error")
	}
	if g.adj[0][1] != 10 {
		t.Errorf("conflicting duplicate mutated weight: %d", g.adj[0][1])
	}
	// The graph stays fully usable after rejected inserts.
	if err := g.AddEdge(0, 2, 7); err != nil {
		t.Errorf("valid insert after errors: %v", err)
	}
	if !g.HasEdge(0, 2) || g.adj[0][2] != 7 {
		t.Error("valid insert after errors not applied")
	}
}

func TestBuildFiltersByThreshold(t *testing.T) {
	weights := map[[2]int]int64{{0, 1}: 100, {1, 2}: 5, {0, 2}: 50}
	g := Build(names(3), func(i, j int) int64 {
		if i > j {
			i, j = j, i
		}
		return weights[[2]int{i, j}]
	}, 50)
	if g.nEdges != 2 || g.HasEdge(1, 2) {
		t.Errorf("Build kept wrong edges: %v", g)
	}
}

func TestIsClique(t *testing.T) {
	if !completeGraph(4).IsClique() {
		t.Error("complete graph not detected")
	}
	if pathGraph(3).IsClique() {
		t.Error("path detected as clique")
	}
	if !NewKAG(names(1)).IsClique() || !NewKAG(nil).IsClique() {
		t.Error("degenerate cliques")
	}
	if !completeGraph(2).IsClique() {
		t.Error("edge is a clique")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewKAG(names(5))
	g.AddEdge(0, 1, 10)
	g.AddEdge(3, 4, 10)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	want := [][]int{{0, 1}, {2}, {3, 4}}
	for i := range want {
		if fmt.Sprint(comps[i]) != fmt.Sprint(want[i]) {
			t.Errorf("component %d = %v, want %v", i, comps[i], want[i])
		}
	}
}

func TestInduced(t *testing.T) {
	g := completeGraph(4)
	sub := g.Induced([]int{0, 2, 3})
	if sub.N() != 3 || sub.nEdges != 3 {
		t.Fatalf("Induced = %v", sub)
	}
	if sub.Name(1) != "m02" {
		t.Errorf("Induced name = %s", sub.Name(1))
	}
	sub2 := pathGraph(4).Induced([]int{0, 3})
	if sub2.nEdges != 0 {
		t.Error("non-adjacent induced subgraph should have no edges")
	}
}

// verifySeparates checks that removing S0 really disconnects S1 from S2.
func verifySeparates(t *testing.T, g *KAG, sep Separator) {
	t.Helper()
	removed := map[int]bool{}
	for _, v := range sep.S0 {
		removed[v] = true
	}
	side := map[int]int{}
	for _, v := range sep.S1 {
		side[v] = 1
	}
	for _, v := range sep.S2 {
		side[v] = 2
	}
	// BFS from each S1 vertex avoiding S0 must never reach S2.
	for _, start := range sep.S1 {
		stack := []int{start}
		seen := map[int]bool{start: true}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if side[v] == 2 {
				t.Fatalf("separator fails: reached S2 vertex %d from S1", v)
			}
			for u := range g.adj[v] {
				if !removed[u] && !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	if len(sep.S0)+len(sep.S1)+len(sep.S2) != g.N() {
		t.Fatalf("separator does not partition: %d+%d+%d != %d",
			len(sep.S0), len(sep.S1), len(sep.S2), g.N())
	}
}

func TestSeparatorOnBarbell(t *testing.T) {
	g := barbell(4) // bridge vertex 4
	sep, ok := FindBalancedSeparator(g)
	if !ok {
		t.Fatal("no separator found")
	}
	verifySeparates(t, g, sep)
	if len(sep.S0) != 1 || g.Name(sep.S0[0]) != "m04" {
		t.Errorf("S0 = %v (names %v), want the bridge", sep.S0, g.Names(sep.S0))
	}
}

func TestSeparatorOnPath(t *testing.T) {
	g := pathGraph(7)
	sep, ok := FindBalancedSeparator(g)
	if !ok {
		t.Fatal("no separator found")
	}
	verifySeparates(t, g, sep)
	if len(sep.S0) != 1 {
		t.Errorf("path should separate at one vertex, got %v", sep.S0)
	}
}

func TestSeparatorOnClique(t *testing.T) {
	if _, ok := FindBalancedSeparator(completeGraph(5)); ok {
		t.Error("complete graph should have no decomposing separator")
	}
	if _, ok := FindBalancedSeparator(completeGraph(2)); ok {
		t.Error("tiny graph should have no separator")
	}
}

func TestSeparatorRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(15)
		g := NewKAG(names(n))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.25 {
					g.AddEdge(i, j, 10)
				}
			}
		}
		sep, ok := FindBalancedSeparator(g)
		if !ok {
			continue
		}
		// A separator is only meaningful within one connected component,
		// but the partition invariant and separation must hold globally.
		verifySeparates(t, g, sep)
	}
}

func TestDecomposePathIntoCoverablePieces(t *testing.T) {
	g := pathGraph(10)
	d := Decompose(g, func(ns []string) bool { return len(ns) <= 3 }, nil, 5)
	if len(d.Cliques) != 0 {
		t.Errorf("path decomposition left cliques: %v", d.Cliques)
	}
	if len(d.Coverable) == 0 {
		t.Fatal("no coverable pieces")
	}
	for _, ns := range d.Coverable {
		if len(ns) > 3 {
			t.Errorf("piece %v exceeds coverable bound", ns)
		}
	}
	// Every edge of the path must be inside some piece.
	assertEdgesCovered(t, g, d)
}

func TestDecomposeCliqueGoesToMining(t *testing.T) {
	g := completeGraph(6)
	d := Decompose(g, func(ns []string) bool { return len(ns) <= 3 }, nil, 5)
	if len(d.Cliques) != 1 || len(d.Cliques[0]) != 6 {
		t.Fatalf("Cliques = %v", d.Cliques)
	}
	if len(d.Coverable) != 0 {
		t.Errorf("Coverable = %v", d.Coverable)
	}
}

func TestDecomposeDisconnected(t *testing.T) {
	g := NewKAG(names(6))
	g.AddEdge(0, 1, 10)
	g.AddEdge(2, 3, 10)
	d := Decompose(g, func(ns []string) bool { return len(ns) <= 2 }, nil, 5)
	if len(d.Coverable) != 6-2 { // {0,1},{2,3},{4},{5}
		t.Errorf("Coverable = %v", d.Coverable)
	}
}

func TestDecomposeEmpty(t *testing.T) {
	d := Decompose(NewKAG(nil), func([]string) bool { return true }, nil, 1)
	if len(d.Coverable) != 0 || len(d.Cliques) != 0 {
		t.Errorf("empty decomposition = %+v", d)
	}
}

// assertEdgesCovered checks the 2-clique coverage invariant: every KAG
// edge (a frequent pair, by construction of the KAG) appears holistically
// in at least one output leaf.
func assertEdgesCovered(t *testing.T, g *KAG, d Decomposition) {
	t.Helper()
	leaves := append(append([][]string(nil), d.Coverable...), d.Cliques...)
	for u := 0; u < g.N(); u++ {
		for v := range g.adj[u] {
			if v <= u {
				continue
			}
			if !someLeafContains(leaves, g.Name(u), g.Name(v)) {
				t.Errorf("edge %s-%s not covered by any leaf", g.Name(u), g.Name(v))
			}
		}
	}
}

func someLeafContains(leaves [][]string, ns ...string) bool {
	for _, leaf := range leaves {
		all := true
		for _, n := range ns {
			if !containsStr(leaf, n) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// TestDecomposePreservesFrequentCliques is the central §5.2.1 invariant:
// every clique whose support is ≥ T_C must survive holistically in some
// leaf, whichever replication scheme the decomposition used. The support
// oracle is a deterministic hash of the sorted names.
func TestDecomposePreservesFrequentCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const tc = 50
	oracle := func(ns []string) int64 {
		sorted := append([]string(nil), ns...)
		sort.Strings(sorted)
		h := int64(1469598103934665603)
		for _, c := range strings.Join(sorted, "|") {
			h = (h ^ int64(c)) * 16777619 % 1000003
			if h < 0 {
				h = -h
			}
		}
		return h % 100 // support in [0, 100); tc = 50 splits roughly evenly
	}
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(10)
		g := NewKAG(names(n))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.35 {
					g.AddEdge(i, j, tc+10)
				}
			}
		}
		d := Decompose(g, func(ns []string) bool { return len(ns) <= 4 }, oracle, tc)
		assertEdgesCovered(t, g, d)
		leaves := append(append([][]string(nil), d.Coverable...), d.Cliques...)
		// Every frequent triangle must be inside one leaf.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if !g.HasEdge(a, b) {
					continue
				}
				for c := b + 1; c < n; c++ {
					if !g.HasEdge(a, c) || !g.HasEdge(b, c) {
						continue
					}
					tri := []string{g.Name(a), g.Name(b), g.Name(c)}
					if oracle(tri) >= tc && !someLeafContains(leaves, tri...) {
						t.Errorf("trial %d: frequent triangle %v lost", trial, tri)
					}
				}
			}
		}
	}
}

func TestDecomposeScheme1WithoutOracle(t *testing.T) {
	// With a nil oracle every S0-S0 edge with a crossing triangle is
	// replicated (scheme 1) — all triangles must survive, frequent or
	// not.
	rng := rand.New(rand.NewSource(31))
	n := 12
	g := NewKAG(names(n))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.3 {
				g.AddEdge(i, j, 100)
			}
		}
	}
	d := Decompose(g, func(ns []string) bool { return len(ns) <= 4 }, nil, 50)
	leaves := append(append([][]string(nil), d.Coverable...), d.Cliques...)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				if g.HasEdge(a, b) && g.HasEdge(a, c) && g.HasEdge(b, c) {
					tri := []string{g.Name(a), g.Name(b), g.Name(c)}
					if !someLeafContains(leaves, tri...) {
						t.Errorf("triangle %v lost under scheme 1", tri)
					}
				}
			}
		}
	}
	if d.SupportQueries != 0 {
		t.Errorf("nil oracle should never be queried, got %d", d.SupportQueries)
	}
}

func TestDecomposeCountsWork(t *testing.T) {
	g := barbell(5)
	d := Decompose(g, func(ns []string) bool { return len(ns) <= 4 }, nil, 5)
	if d.Separators == 0 {
		t.Error("no separator computations recorded")
	}
	// Two 5-cliques (+bridge) cannot fit in 4-term views: they must end
	// up as mining cliques.
	if len(d.Cliques) < 2 {
		t.Errorf("Cliques = %v", d.Cliques)
	}
}

// TestMinVertexSeparatorMatchesBruteForce validates the max-flow vertex
// cut against exhaustive search on small random graphs: when the
// separator search returns a result, its size must equal the true
// minimum vertex cut between the prefix and suffix vertex sets.
func TestMinVertexSeparatorMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(5) // 4..8 vertices
		g := NewKAG(names(n))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.45 {
					g.AddEdge(i, j, 10)
				}
			}
		}
		for split := 1; split < n; split++ {
			sep, ok := minVertexSeparator(g, split)
			want := bruteMinVertexCut(g, split)
			if !ok {
				// The optimum swallows one whole side; the flow value
				// must still equal the brute-force optimum, we just
				// cannot use it as a decomposition.
				continue
			}
			if len(sep.S0) != want {
				t.Fatalf("trial %d split %d: separator %v size %d, brute force %d",
					trial, split, sep.S0, len(sep.S0), want)
			}
			verifySeparates(t, g, sep)
		}
	}
}

// bruteMinVertexCut finds the minimum |S| over all vertex subsets S such
// that removing S leaves no path from a prefix vertex ∉ S to a suffix
// vertex ∉ S.
func bruteMinVertexCut(g *KAG, split int) int {
	n := g.N()
	best := n
	for mask := 0; mask < 1<<n; mask++ {
		size := 0
		removed := make([]bool, n)
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				removed[v] = true
				size++
			}
		}
		if size >= best {
			continue
		}
		if separatesPrefix(g, split, removed) {
			best = size
		}
	}
	return best
}

func separatesPrefix(g *KAG, split int, removed []bool) bool {
	n := g.N()
	seen := make([]bool, n)
	var stack []int
	for v := 0; v < split; v++ {
		if !removed[v] {
			stack = append(stack, v)
			seen[v] = true
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v >= split {
			return false
		}
		for u := range g.adj[v] {
			if !removed[u] && !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return true
}
