package views

import (
	"fmt"
	"math/rand"
	"testing"
)

// fakeView builds a view with keyword set k that reports size non-empty
// groups (Match consults only K and Size, so no rows are needed).
func fakeView(k []string, size int) *View {
	v := newView(k, nil)
	v.rows = size
	return v
}

// linearMatch is the reference semantics Match promises: the first
// usable view in ascending-size order.
func linearMatch(c *Catalog, p []string) *View {
	q := canonicalTerms(p)
	for _, v := range c.views {
		if v.Usable(q) {
			return v
		}
	}
	return nil
}

// TestCatalogMatchEqualsLinearScan drives Match through every path —
// exact-K signature hits, equal-size band rescans, subset fallback,
// misses, non-canonical inputs — against the plain linear scan on a
// randomized 300-view catalog.
func TestCatalogMatchEqualsLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	universe := make([]string, 40)
	for i := range universe {
		universe[i] = fmt.Sprintf("t%02d", i)
	}
	pick := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = universe[rng.Intn(len(universe))]
		}
		return out
	}
	// Sizes must respect the ViewSize monotonicity real materialization
	// guarantees (K ⊆ K' ⇒ Size ≤ Size'), which the exact-hit shortcut
	// depends on: use a per-term weight sum, monotone under subsets by
	// construction. Duplicate K sets and equal-size bands still occur at
	// this density, exercising the signature dedup and the band rescan.
	monotoneSize := func(k []string) int {
		size := 1
		for _, w := range canonicalTerms(k) {
			size += 1 + int(w[1]-'0')%3
		}
		return size
	}
	vs := make([]*View, 300)
	for i := range vs {
		k := pick(1 + rng.Intn(4))
		vs[i] = fakeView(k, monotoneSize(k))
	}
	c := NewCatalog(vs, 100, 4096)

	contexts := make([][]string, 0, 1200)
	for _, v := range vs {
		contexts = append(contexts, v.K()) // exact hits
	}
	for i := 0; i < 300; i++ {
		contexts = append(contexts, pick(1+rng.Intn(5))) // random (subset / miss)
	}
	for _, v := range vs[:100] {
		k := v.K()
		// Non-canonical variants of exact hits: reversed and duplicated.
		rev := make([]string, 0, 2*len(k))
		for i := len(k) - 1; i >= 0; i-- {
			rev = append(rev, k[i], k[i])
		}
		contexts = append(contexts, rev)
		if len(k) > 1 {
			contexts = append(contexts, k[:1]) // strict subset
		}
	}
	for i, p := range contexts {
		want, got := linearMatch(c, p), c.Match(p)
		if want != got {
			t.Fatalf("context %d %v: Match returned %p (K=%v), linear scan %p (K=%v)",
				i, p, got, kOf(got), want, kOf(want))
		}
	}
}

func kOf(v *View) []string {
	if v == nil {
		return nil
	}
	return v.K()
}

// TestCatalogMatchBandTie pins the equal-size band rescan: an exact-K
// hit must still lose to an earlier usable view of the same size,
// because that is what the ordered linear scan would return.
func TestCatalogMatchBandTie(t *testing.T) {
	early := fakeView([]string{"a", "b", "x"}, 5) // same size, earlier in sort order
	exact := fakeView([]string{"a", "b"}, 5)
	other := fakeView([]string{"z"}, 3)
	c := NewCatalog([]*View{early, exact, other}, 100, 4096)
	if got := c.Match([]string{"a", "b"}); got != early {
		t.Fatalf("Match({a,b}) = K=%v, want the earlier same-size view K=%v", kOf(got), early.K())
	}
	// With the earlier view in a strictly smaller band the exact hit wins.
	c2 := NewCatalog([]*View{fakeView([]string{"a", "b", "x"}, 9), exact, other}, 100, 4096)
	if got := c2.Match([]string{"a", "b"}); got != exact {
		t.Fatalf("Match({a,b}) = K=%v, want the exact view", kOf(got))
	}
}

// TestCatalogMatchNonCanonicalContext: Match canonicalizes its input, so
// order and duplicates must not change the answer.
func TestCatalogMatchNonCanonicalContext(t *testing.T) {
	v := fakeView([]string{"alpha", "beta"}, 4)
	c := NewCatalog([]*View{v, fakeView([]string{"gamma"}, 2)}, 100, 4096)
	for _, p := range [][]string{
		{"alpha", "beta"},
		{"beta", "alpha"},
		{"beta", "alpha", "beta", "alpha"},
	} {
		if got := c.Match(p); got != v {
			t.Fatalf("Match(%v) = K=%v, want K=%v", p, kOf(got), v.K())
		}
	}
	if got := c.Match([]string{"beta", "delta"}); got != nil {
		t.Fatalf("Match on uncovered context returned K=%v, want nil", kOf(got))
	}
}

// BenchmarkCatalogMatch measures view matching at catalog sizes where
// the linear subset scan hurts (1.5k views): the signature index resolves
// exact-K contexts — the dominant case when selection mined the query
// workload — in O(|P|), while subset-only and miss contexts fall back to
// the ordered scan. linear-scan/exact-k is the pre-index baseline on the
// same contexts.
func BenchmarkCatalogMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	universe := make([]string, 200)
	for i := range universe {
		universe[i] = fmt.Sprintf("term%03d", i)
	}
	vs := make([]*View, 1500)
	for i := range vs {
		k := make([]string, 1+rng.Intn(4))
		for j := range k {
			k[j] = universe[rng.Intn(len(universe))]
		}
		vs[i] = fakeView(k, 1+rng.Intn(64))
	}
	c := NewCatalog(vs, 100, 4096)
	exacts := make([][]string, 256)
	for i := range exacts {
		exacts[i] = vs[rng.Intn(len(vs))].K()
	}
	misses := make([][]string, 256)
	for i := range misses {
		misses[i] = []string{universe[rng.Intn(len(universe))], "neverindexed"}
	}
	var sink *View
	b.Run("indexed/exact-k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = c.Match(exacts[i%len(exacts)])
		}
	})
	b.Run("linear-scan/exact-k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = linearMatch(c, exacts[i%len(exacts)])
		}
	})
	b.Run("fallback/miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = c.Match(misses[i%len(misses)])
		}
	})
	_ = sink
}
