package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"csrank/internal/analysis"
	"csrank/internal/corpus"
)

// Query classes. The class decides which plan a query can take: large
// contexts are the ones view selection guarantees coverage for, small
// ones always run the straightforward plan, free queries carry no
// context (and include the broad single-keyword queries that make the
// scoring tail).
const (
	classLarge = "large"
	classSmall = "small"
	classFree  = "free"
)

var classShare = []struct {
	class string
	share float64
}{{classLarge, 0.40}, {classSmall, 0.40}, {classFree, 0.20}}

type logQuery struct {
	Text  string // "w1 w2 | m1 m2"
	Class string
}

// meshIndex maps each annotation term to the ascending base-document
// numbers carrying it, so context sizes come from the generated inputs
// and not from the system under test.
type meshIndex map[string][]int32

func buildMeshIndex(docs []corpus.Citation) meshIndex {
	mi := meshIndex{}
	for i, d := range docs {
		for _, m := range d.Mesh {
			mi[m] = append(mi[m], int32(i))
		}
	}
	return mi
}

// contextSize is |D_P| over the base documents for a conjunction of
// terms.
func (mi meshIndex) contextSize(terms []string) int {
	if len(terms) == 0 {
		return 0
	}
	cur := mi[terms[0]]
	for _, t := range terms[1:] {
		next := mi[t]
		var out []int32
		i, j := 0, 0
		for i < len(cur) && j < len(next) {
			switch {
			case cur[i] < next[j]:
				i++
			case cur[i] > next[j]:
				j++
			default:
				out = append(out, cur[i])
				i++
				j++
			}
		}
		cur = out
	}
	return len(cur)
}

// hugeShare is the share of the corpus above which a context is huge:
// the few top-level annotations ("humans", "organisms") whose view scans
// and scoring passes cost ten times the median query. A fixed quarter of
// the large class is drawn from them so that their number, which sets
// the mean and the tail, does not vary with the seed.
const hugeShare = 0.25

// buildQueryLog draws n distinct queries in the class quotas. Each query
// is derived from one base document — keywords from its title, context
// from its own annotations — so that document is always a hit. Within a
// class the keyword count, the context-term count and (for large
// contexts) the huge/non-huge split cycle deterministically; only which
// documents and terms fill the slots depends on the seed.
func buildQueryLog(docs []corpus.Citation, mi meshIndex, n int, seed int64) ([]logQuery, error) {
	rng := rand.New(rand.NewSource(seed))
	an := analysis.Standard()
	// A context counts as large when it clears T_C on a shard of average
	// size with a margin, small when it is clearly below it.
	tc := tcFraction * float64(len(docs))
	huge := int(hugeShare * float64(len(docs)))
	bounds := map[string][2]int{
		"huge":     {huge, len(docs)},
		classLarge: {int(1.5 * tc), huge - 1},
		classSmall: {1, int(0.5 * tc)},
	}

	quota := map[string]int{}
	assigned := 0
	for _, cs := range classShare {
		quota[cs.class] = int(cs.share * float64(n))
		assigned += quota[cs.class]
	}
	quota[classLarge] += n - assigned

	seen := map[string]bool{}
	var log []logQuery
	for _, cs := range classShare {
		tries := 0
		for j := 0; j < quota[cs.class]; {
			if tries++; tries > 500*n {
				return nil, fmt.Errorf("query log: cannot draw %d more %s queries", quota[cs.class]-j, cs.class)
			}
			d := docs[rng.Intn(len(docs))]
			kws := titleKeywords(rng, an, d.Title, 1+j%2)
			if len(kws) != 1+j%2 {
				continue
			}
			text := strings.Join(kws, " ")
			if cs.class != classFree {
				size := cs.class
				if cs.class == classLarge && j%4 == 3 {
					size = "huge"
				}
				ctx := pickContext(rng, mi, d.Mesh, 1+(j/2)%2, bounds[size])
				if ctx == nil {
					continue
				}
				text += " | " + strings.Join(ctx, " ")
			}
			if seen[text] {
				continue
			}
			seen[text] = true
			log = append(log, logQuery{Text: text, Class: cs.class})
			j++
		}
	}
	// Interleave the classes so a round-robin pass and a prefix of the
	// log both see the class mix.
	rng.Shuffle(len(log), func(i, j int) { log[i], log[j] = log[j], log[i] })
	return log, nil
}

// titleKeywords picks up to n distinct title words that survive
// analysis (stopwords do not).
func titleKeywords(rng *rand.Rand, an *analysis.Analyzer, title string, n int) []string {
	words := strings.Fields(title)
	rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	var out []string
	for _, w := range words {
		if len(out) == n {
			break
		}
		if len(an.Analyze(w)) != 1 || contains(out, w) {
			continue
		}
		out = append(out, w)
	}
	return out
}

// pickContext chooses nTerms of the document's own annotations whose
// conjunction holds between size[0] and size[1] documents, or nil when
// the document offers none.
func pickContext(rng *rand.Rand, mi meshIndex, mesh []string, nTerms int, size [2]int) []string {
	fits := func(ctx []string) bool {
		n := mi.contextSize(ctx)
		return n >= size[0] && n <= size[1]
	}
	terms := append([]string(nil), mesh...)
	rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	for i, a := range terms {
		if nTerms == 1 {
			if fits([]string{a}) {
				return []string{a}
			}
			continue
		}
		for _, b := range terms[i+1:] {
			ctx := []string{a, b}
			sort.Strings(ctx)
			if fits(ctx) {
				return ctx
			}
		}
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// firstOfClass returns the indexes of the first n log queries of a
// class.
func firstOfClass(log []logQuery, class string, n int) []int {
	var out []int
	for i, q := range log {
		if len(out) == n {
			break
		}
		if q.Class == class {
			out = append(out, i)
		}
	}
	return out
}

// zipf draws ranks in [0,n) with P(rank r) ∝ 1/(r+1) — s = 1.0, which
// math/rand's Zipf (s > 1 only) cannot produce — by inverting the
// harmonic CDF.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(n int, seed int64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf, rng: rand.New(rand.NewSource(seed))}
}

func (z *zipf) next() int {
	i := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}
