package mining

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// classic dataset from the Apriori paper family:
// transactions over items 1..5.
func classicTx() [][]Item {
	return [][]Item{
		{1, 3, 4},
		{2, 3, 5},
		{1, 2, 3, 5},
		{2, 5},
		{1, 2, 3, 5},
	}
}

func minersAgree(t *testing.T, tx [][]Item, opts Options) []FrequentItemset {
	t.Helper()
	a := Apriori(tx, opts)
	f := FPGrowth(tx, opts)
	e := Eclat(tx, opts)
	if !reflect.DeepEqual(a, f) {
		t.Fatalf("Apriori and FP-growth disagree:\n%v\nvs\n%v", a, f)
	}
	if !reflect.DeepEqual(a, e) {
		t.Fatalf("Apriori and Eclat disagree:\n%v\nvs\n%v", a, e)
	}
	return a
}

func TestClassicDataset(t *testing.T) {
	got := minersAgree(t, classicTx(), Options{MinSupport: 2})
	// Hand-derived frequent itemsets with support ≥ 2.
	want := map[string]int{}
	expect := []FrequentItemset{
		{Items: []Item{1}, Support: 3},
		{Items: []Item{2}, Support: 4},
		{Items: []Item{3}, Support: 4},
		{Items: []Item{5}, Support: 4},
		{Items: []Item{1, 2}, Support: 2},
		{Items: []Item{1, 3}, Support: 3},
		{Items: []Item{1, 5}, Support: 2},
		{Items: []Item{2, 3}, Support: 3},
		{Items: []Item{2, 5}, Support: 4},
		{Items: []Item{3, 5}, Support: 3},
		{Items: []Item{1, 2, 3}, Support: 2},
		{Items: []Item{1, 2, 5}, Support: 2},
		{Items: []Item{1, 3, 5}, Support: 2},
		{Items: []Item{2, 3, 5}, Support: 3},
		{Items: []Item{1, 2, 3, 5}, Support: 2},
	}
	for _, s := range expect {
		want[itemsKey(s.Items)] = s.Support
	}
	if len(got) != len(expect) {
		t.Fatalf("got %d itemsets, want %d: %v", len(got), len(expect), got)
	}
	for _, s := range got {
		if want[itemsKey(s.Items)] != s.Support {
			t.Errorf("itemset %v support %d, want %d", s.Items, s.Support, want[itemsKey(s.Items)])
		}
	}
}

func TestMaxLen(t *testing.T) {
	got := minersAgree(t, classicTx(), Options{MinSupport: 2, MaxLen: 2})
	for _, s := range got {
		if len(s.Items) > 2 {
			t.Errorf("itemset %v exceeds MaxLen", s.Items)
		}
	}
	// All 2-itemsets still present.
	n2 := 0
	for _, s := range got {
		if len(s.Items) == 2 {
			n2++
		}
	}
	if n2 != 6 {
		t.Errorf("%d 2-itemsets, want 6", n2)
	}
}

func TestHighSupportThreshold(t *testing.T) {
	got := minersAgree(t, classicTx(), Options{MinSupport: 4})
	// Only {2}, {3}, {5}, {2,5} have support ≥ 4.
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if got := minersAgree(t, nil, Options{MinSupport: 1}); len(got) != 0 {
		t.Errorf("empty dataset mined %v", got)
	}
	if got := minersAgree(t, [][]Item{{}, {}}, Options{MinSupport: 1}); len(got) != 0 {
		t.Errorf("empty transactions mined %v", got)
	}
	got := minersAgree(t, [][]Item{{7}}, Options{MinSupport: 1})
	if len(got) != 1 || got[0].Support != 1 {
		t.Errorf("singleton dataset mined %v", got)
	}
	// MinSupport below 1 is clamped.
	got = Apriori([][]Item{{1}}, Options{MinSupport: 0})
	if len(got) != 1 {
		t.Errorf("clamped support mined %v", got)
	}
}

// supportOf counts transactions containing all items (itemset sorted).
// The brute-force oracle the miners are checked against.
func supportOf(tx [][]Item, items []Item) int {
	n := 0
	for _, t := range tx {
		if isSubset(items, t) {
			n++
		}
	}
	return n
}

func TestSupportsAreExact(t *testing.T) {
	tx := randomTx(rand.New(rand.NewSource(5)), 200, 12, 0.25)
	got := minersAgree(t, tx, Options{MinSupport: 20})
	if len(got) == 0 {
		t.Fatal("no frequent itemsets at support 20; generator too sparse")
	}
	for _, s := range got {
		if want := supportOf(tx, s.Items); s.Support != want {
			t.Errorf("itemset %v support %d, oracle %d", s.Items, s.Support, want)
		}
	}
}

func TestCompleteness(t *testing.T) {
	// Every frequent pair found by brute force must be mined.
	tx := randomTx(rand.New(rand.NewSource(9)), 150, 8, 0.3)
	minSup := 15
	mined := map[string]bool{}
	for _, s := range minersAgree(t, tx, Options{MinSupport: minSup}) {
		mined[itemsKey(s.Items)] = true
	}
	for a := Item(0); a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			items := []Item{a, b}
			if supportOf(tx, items) >= minSup && !mined[itemsKey(items)] {
				t.Errorf("frequent pair %v missed", items)
			}
		}
	}
}

func randomTx(rng *rand.Rand, n, items int, p float64) [][]Item {
	tx := make([][]Item, n)
	for i := range tx {
		for it := Item(0); it < Item(items); it++ {
			if rng.Float64() < p {
				tx[i] = append(tx[i], it)
			}
		}
	}
	return tx
}

// Property: the three miners agree on random datasets, and every mined
// support is correct.
func TestMinersAgreeProperty(t *testing.T) {
	f := func(seed int64, supRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tx := randomTx(rng, 60+rng.Intn(100), 6+rng.Intn(6), 0.2+rng.Float64()*0.2)
		minSup := 5 + int(supRaw%20)
		a := Apriori(tx, Options{MinSupport: minSup})
		fp := FPGrowth(tx, Options{MinSupport: minSup})
		e := Eclat(tx, Options{MinSupport: minSup})
		if !reflect.DeepEqual(a, fp) || !reflect.DeepEqual(a, e) {
			return false
		}
		for _, s := range a {
			if s.Support < minSup || supportOf(tx, s.Items) != s.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMaximal(t *testing.T) {
	sets := []FrequentItemset{
		{Items: []Item{1}, Support: 5},
		{Items: []Item{1, 2}, Support: 4},
		{Items: []Item{1, 2, 3}, Support: 3},
		{Items: []Item{4}, Support: 3},
		{Items: []Item{2, 3}, Support: 3},
	}
	got := Maximal(sets)
	if len(got) != 2 {
		t.Fatalf("Maximal = %v", got)
	}
	keys := map[string]bool{}
	for _, s := range got {
		keys[itemsKey(s.Items)] = true
	}
	if !keys[itemsKey([]Item{1, 2, 3})] || !keys[itemsKey([]Item{4})] {
		t.Errorf("Maximal = %v", got)
	}
}

func TestMaximalOfMinedSets(t *testing.T) {
	tx := classicTx()
	all := Apriori(tx, Options{MinSupport: 2})
	maxl := Maximal(all)
	// Every maximal set is frequent; every frequent set is a subset of
	// some maximal set; no maximal set contains another.
	for _, m := range maxl {
		if supportOf(tx, m.Items) < 2 {
			t.Errorf("maximal set %v not frequent", m.Items)
		}
		for _, m2 := range maxl {
			if !reflect.DeepEqual(m.Items, m2.Items) && isSubset(m.Items, m2.Items) {
				t.Errorf("maximal set %v contained in %v", m.Items, m2.Items)
			}
		}
	}
	for _, s := range all {
		covered := false
		for _, m := range maxl {
			if isSubset(s.Items, m.Items) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("frequent set %v not covered by any maximal set", s.Items)
		}
	}
}

func TestIsSubset(t *testing.T) {
	cases := []struct {
		a, b []Item
		want bool
	}{
		{nil, nil, true},
		{nil, []Item{1}, true},
		{[]Item{1}, nil, false},
		{[]Item{1, 3}, []Item{1, 2, 3}, true},
		{[]Item{1, 4}, []Item{1, 2, 3}, false},
		{[]Item{2}, []Item{1, 2, 3}, true},
	}
	for _, c := range cases {
		if got := isSubset(c.a, c.b); got != c.want {
			t.Errorf("isSubset(%v,%v) = %v", c.a, c.b, got)
		}
	}
}
