package ranking

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// indexed lays c out in q's slot order — the query's distinct keywords in
// first-occurrence order — exactly as the engine does before scoring.
func indexed(q QueryStats, c CollectionStats) CollectionStats {
	c.IndexTerms(q.DistinctTerms())
	return c
}

func TestQueryStats(t *testing.T) {
	q := NewQueryStats([]string{"pancreas", "leukemia", "pancreas"})
	if d := q.DistinctTerms(); !slices.Equal(d, []string{"pancreas", "leukemia"}) {
		t.Errorf("DistinctTerms = %v", d)
	}
	if !slices.Equal(q.TQs, []int{2, 1}) {
		t.Errorf("TQs = %v", q.TQs)
	}
	c := indexed(q, CollectionStats{DF: map[string]int64{"pancreas": 7, "leukemia": 3}, TC: map[string]int64{"leukemia": 9}})
	if !slices.Equal(c.DFs, []int64{7, 3}) || !slices.Equal(c.TCs, []int64{0, 9}) {
		t.Errorf("IndexTerms DFs = %v TCs = %v", c.DFs, c.TCs)
	}
}

func TestAvgDocLen(t *testing.T) {
	c := CollectionStats{N: 4, TotalLen: 100}
	if !approx(c.AvgDocLen(), 25) {
		t.Errorf("AvgDocLen = %f", c.AvgDocLen())
	}
	if (CollectionStats{}).AvgDocLen() != 0 {
		t.Error("empty collection AvgDocLen should be 0")
	}
}

// TestPivotedHandComputed checks Formula 3 against a hand-computed value.
func TestPivotedHandComputed(t *testing.T) {
	// One query term w with tq=1; tf(w,d)=2, len(d)=10; |D|=9, len(D)=90
	// (avgdl=10, so the norm is exactly 1); df(w,D)=4.
	//
	// score = (1 + ln(1 + ln 2)) / ((1-0.2) + 0.2·10/10) · 1 · ln(10/4)
	//       = (1 + ln(1.693147...)) · ln(2.5)
	q := NewQueryStats([]string{"w"})
	d := DocStats{TFs: []int64{2}, Len: 10}
	c := indexed(q, CollectionStats{N: 9, TotalLen: 90, DF: map[string]int64{"w": 4}})
	want := (1 + math.Log(1+math.Log(2))) * math.Log(10.0/4.0)
	got := NewPivotedTFIDF().ScoreIndexed(q, d, c)
	if !approx(got, want) {
		t.Errorf("ScoreIndexed = %v, want %v", got, want)
	}
}

func TestPivotedLengthNormalization(t *testing.T) {
	// A longer document with the same tf must score lower (pivoted norm).
	q := NewQueryStats([]string{"w"})
	c := indexed(q, CollectionStats{N: 100, TotalLen: 1000, DF: map[string]int64{"w": 10}})
	short := DocStats{TFs: []int64{3}, Len: 5}
	long := DocStats{TFs: []int64{3}, Len: 50}
	s := NewPivotedTFIDF()
	if s.ScoreIndexed(q, short, c) <= s.ScoreIndexed(q, long, c) {
		t.Error("longer document should score lower at equal tf")
	}
}

func TestPivotedMissingTermContributesNothing(t *testing.T) {
	// A keyword the document lacks (tf = 0) adds nothing: scoring {w, x}
	// equals scoring {w} alone.
	both := NewQueryStats([]string{"w", "x"})
	only := NewQueryStats([]string{"w"})
	c := CollectionStats{N: 10, TotalLen: 100, DF: map[string]int64{"w": 2, "x": 2}}
	s := NewPivotedTFIDF()
	got := s.ScoreIndexed(both, DocStats{TFs: []int64{1, 0}, Len: 10}, indexed(both, c))
	want := s.ScoreIndexed(only, DocStats{TFs: []int64{1}, Len: 10}, indexed(only, c))
	if got != want {
		t.Errorf("zero-tf keyword changed the score: %v vs %v", got, want)
	}
}

func TestPivotedDegenerateInputs(t *testing.T) {
	s := NewPivotedTFIDF()
	q := NewQueryStats([]string{"w"})
	d := DocStats{TFs: []int64{1}, Len: 10}
	if got := s.ScoreIndexed(q, d, indexed(q, CollectionStats{})); got != 0 {
		t.Errorf("empty collection score = %v", got)
	}
	// df = 0 is clamped, not infinite.
	c := indexed(q, CollectionStats{N: 10, TotalLen: 100, DF: map[string]int64{}})
	if got := s.ScoreIndexed(q, d, c); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("df=0 score = %v", got)
	}
}

// TestContextReversal reproduces the paper's §1.1 example: query
// {pancreas, leukemia}; C1 matches only "pancreas", C2 matches only
// "leukemia". Globally leukemia is more frequent than pancreas, so
// conventional ranking puts C1 first; within the digestive-system context
// the frequencies reverse, so context-sensitive ranking puts C2 first.
// The scorer is the same f — only S_c changes (Formula 2).
func TestContextReversal(t *testing.T) {
	q := NewQueryStats([]string{"pancreas", "leukemia"})
	c1 := DocStats{TFs: []int64{1, 0}, Len: 4}
	c2 := DocStats{TFs: []int64{0, 1}, Len: 4}

	global := indexed(q, CollectionStats{
		N: 18_000_000, TotalLen: 72_000_000,
		DF: map[string]int64{"pancreas": 40_000, "leukemia": 900_000},
	})
	context := indexed(q, CollectionStats{
		N: 1_200_000, TotalLen: 4_800_000,
		DF: map[string]int64{"pancreas": 220_000, "leukemia": 9_000},
	})

	for _, s := range []Scorer{NewPivotedTFIDF(), NewBM25()} {
		convC1, convC2 := s.ScoreIndexed(q, c1, global), s.ScoreIndexed(q, c2, global)
		ctxC1, ctxC2 := s.ScoreIndexed(q, c1, context), s.ScoreIndexed(q, c2, context)
		if convC1 <= convC2 {
			t.Errorf("%s conventional: C1 (%v) should outrank C2 (%v)", s.Name(), convC1, convC2)
		}
		if ctxC2 <= ctxC1 {
			t.Errorf("%s context: C2 (%v) should outrank C1 (%v)", s.Name(), ctxC2, ctxC1)
		}
	}
}

func TestBM25Saturation(t *testing.T) {
	q := NewQueryStats([]string{"w"})
	c := indexed(q, CollectionStats{N: 1000, TotalLen: 10000, DF: map[string]int64{"w": 10}})
	s := NewBM25()
	prev := 0.0
	var gains []float64
	for tf := int64(1); tf <= 5; tf++ {
		sc := s.ScoreIndexed(q, DocStats{TFs: []int64{tf}, Len: 10}, c)
		if sc <= prev {
			t.Fatalf("score not increasing in tf: %v after %v", sc, prev)
		}
		gains = append(gains, sc-prev)
		prev = sc
	}
	for i := 1; i < len(gains); i++ {
		if gains[i] >= gains[i-1] {
			t.Errorf("tf gains not diminishing: %v", gains)
		}
	}
}

func TestBM25NonNegativeIDF(t *testing.T) {
	// df > N/2 must not produce a negative contribution.
	q := NewQueryStats([]string{"w"})
	d := DocStats{TFs: []int64{1}, Len: 10}
	c := indexed(q, CollectionStats{N: 10, TotalLen: 100, DF: map[string]int64{"w": 9}})
	if got := NewBM25().ScoreIndexed(q, d, c); got <= 0 {
		t.Errorf("score = %v, want > 0", got)
	}
}

func TestDirichletPrefersDiscriminativeTF(t *testing.T) {
	// With equal lengths, the doc matching the rarer term scores higher.
	q := NewQueryStats([]string{"rare", "common"})
	c := indexed(q, CollectionStats{
		N: 1000, TotalLen: 100000,
		TC: map[string]int64{"rare": 50, "common": 5000},
		DF: map[string]int64{"rare": 40, "common": 3000},
	})
	dRare := DocStats{TFs: []int64{3, 1}, Len: 100}
	dCommon := DocStats{TFs: []int64{1, 3}, Len: 100}
	s := NewDirichletLM()
	if s.ScoreIndexed(q, dRare, c) <= s.ScoreIndexed(q, dCommon, c) {
		t.Error("doc emphasizing the rare term should win")
	}
}

func TestDirichletDegenerate(t *testing.T) {
	s := NewDirichletLM()
	q := NewQueryStats([]string{"w"})
	d := DocStats{TFs: []int64{1}, Len: 10}
	if got := s.ScoreIndexed(q, d, indexed(q, CollectionStats{})); got != 0 {
		t.Errorf("empty collection = %v", got)
	}
	// Unseen term: finite score.
	c := indexed(q, CollectionStats{N: 10, TotalLen: 100, TC: map[string]int64{}})
	if got := s.ScoreIndexed(q, d, c); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("unseen term score = %v", got)
	}
}

// TestScorerNames pins the built-in table: the five names in the order
// the scorer experiment prints them, each resolving to a scorer that
// reports the same name.
func TestScorerNames(t *testing.T) {
	want := []string{"pivoted-tfidf", "bm25", "dirichlet-lm", "jelinek-mercer-lm", "cosine-tfidf"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for _, name := range want {
		if sc, ok := New(name); !ok || sc.Name() != name {
			t.Fatalf("New(%q) = %v, %v", name, sc, ok)
		}
	}
	if sc, ok := New("nope"); ok || sc != nil {
		t.Errorf("New(unknown) = %v, %v", sc, ok)
	}
}

// Property: pivoted TF-IDF is monotone in tf and antitone in df, and never
// NaN/Inf on sane inputs.
func TestPivotedMonotonicityProperty(t *testing.T) {
	s := NewPivotedTFIDF()
	q := NewQueryStats([]string{"w"})
	f := func(tfRaw, dfRaw uint8, lenRaw uint16) bool {
		tf := int64(tfRaw%50) + 1
		df := int64(dfRaw%99) + 1
		dl := int64(lenRaw%500) + 1
		c := indexed(q, CollectionStats{N: 100, TotalLen: 5000, DF: map[string]int64{"w": df}})
		d := DocStats{TFs: []int64{tf}, Len: dl}
		base := s.ScoreIndexed(q, d, c)
		if math.IsNaN(base) || math.IsInf(base, 0) {
			return false
		}
		dMore := DocStats{TFs: []int64{tf + 1}, Len: dl}
		if s.ScoreIndexed(q, dMore, c) <= base {
			return false
		}
		cMoreDF := indexed(q, CollectionStats{N: 100, TotalLen: 5000, DF: map[string]int64{"w": df + 1}})
		return s.ScoreIndexed(q, d, cMoreDF) < base || df >= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every built-in scorer is deterministic and finite over
// random sane inputs.
func TestScorersFiniteProperty(t *testing.T) {
	scorers := All()
	f := func(tfRaw, dfRaw, tcRaw uint8, nRaw uint16) bool {
		n := int64(nRaw%1000) + 2
		df := int64(dfRaw)%n + 1
		tc := int64(tcRaw) + df
		tf := int64(tfRaw%20) + 1
		q := NewQueryStats([]string{"w"})
		d := DocStats{TFs: []int64{tf}, Len: 20}
		c := indexed(q, CollectionStats{N: n, TotalLen: n * 20,
			DF: map[string]int64{"w": df}, TC: map[string]int64{"w": tc}})
		for _, s := range scorers {
			v := s.ScoreIndexed(q, d, c)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			if v != s.ScoreIndexed(q, d, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCosineTFIDF(t *testing.T) {
	s := NewCosineTFIDF()
	if s.Name() != "cosine-tfidf" {
		t.Error("name")
	}
	q := NewQueryStats([]string{"w"})
	c := indexed(q, CollectionStats{N: 100, TotalLen: 1000, DF: map[string]int64{"w": 10}})
	d1 := DocStats{TFs: []int64{4}, Len: 16}
	d2 := DocStats{TFs: []int64{2}, Len: 16}
	if s.ScoreIndexed(q, d1, c) <= s.ScoreIndexed(q, d2, c) {
		t.Error("not monotone in tf")
	}
	// Longer doc, same tf: lower score.
	d3 := DocStats{TFs: []int64{4}, Len: 64}
	if s.ScoreIndexed(q, d1, c) <= s.ScoreIndexed(q, d3, c) {
		t.Error("length normalization missing")
	}
	if got := s.ScoreIndexed(q, DocStats{TFs: []int64{0}}, c); got != 0 {
		t.Errorf("empty doc = %v", got)
	}
	if got := s.ScoreIndexed(q, d1, indexed(q, CollectionStats{})); got != 0 {
		t.Errorf("empty collection = %v", got)
	}
}

func TestJelinekMercerLM(t *testing.T) {
	s := NewJelinekMercerLM()
	if s.Name() != "jelinek-mercer-lm" {
		t.Error("name")
	}
	q := NewQueryStats([]string{"rare", "common"})
	c := indexed(q, CollectionStats{
		N: 1000, TotalLen: 100000,
		TC: map[string]int64{"rare": 50, "common": 5000},
	})
	dRare := DocStats{TFs: []int64{3, 1}, Len: 100}
	dCommon := DocStats{TFs: []int64{1, 3}, Len: 100}
	if s.ScoreIndexed(q, dRare, c) <= s.ScoreIndexed(q, dCommon, c) {
		t.Error("rare-term emphasis should win")
	}
	if got := s.ScoreIndexed(q, dRare, indexed(q, CollectionStats{})); got != 0 {
		t.Errorf("empty collection = %v", got)
	}
	// Finite on unseen terms.
	c2 := indexed(q, CollectionStats{N: 10, TotalLen: 100, TC: map[string]int64{}})
	if v := s.ScoreIndexed(q, dRare, c2); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("unseen term = %v", v)
	}
}

func TestAllScorersContextReversal(t *testing.T) {
	// The §1.1 reversal must hold under every model that uses df or tc.
	q := NewQueryStats([]string{"pancreas", "leukemia"})
	c1 := DocStats{TFs: []int64{3, 1}, Len: 6}
	c2 := DocStats{TFs: []int64{1, 3}, Len: 6}
	global := indexed(q, CollectionStats{
		N: 1_000_000, TotalLen: 8_000_000,
		DF: map[string]int64{"pancreas": 3_000, "leukemia": 120_000},
		TC: map[string]int64{"pancreas": 5_000, "leukemia": 300_000},
	})
	context := indexed(q, CollectionStats{
		N: 60_000, TotalLen: 480_000,
		DF: map[string]int64{"pancreas": 25_000, "leukemia": 400},
		TC: map[string]int64{"pancreas": 60_000, "leukemia": 700},
	})
	for _, s := range All() {
		if s.ScoreIndexed(q, c1, global) <= s.ScoreIndexed(q, c2, global) {
			t.Errorf("%s: conventional should prefer C1", s.Name())
		}
		if s.ScoreIndexed(q, c2, context) <= s.ScoreIndexed(q, c1, context) {
			t.Errorf("%s: context should prefer C2", s.Name())
		}
	}
}
