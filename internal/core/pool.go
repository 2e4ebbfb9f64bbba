package core

import "sync"

// scoreScratch is one scoring phase's scratch: the term-frequency
// buffer handed to the scorer through ranking.DocStats (tf for the
// indexed slice path, tfm for the map path), and the pruned walk's
// staged-bound table (stagedUB, see prunedWorker). Pooled because every
// query needs one; nothing in it escapes into returned results —
// DocStats is read during the Score call and Result copies only the
// docID and score — so recycling is invisible to callers.
type scoreScratch struct {
	tf       []int64
	tfm      map[string]int64
	stagedUB []float64
}

var scratchPool = sync.Pool{New: func() any { return &scoreScratch{} }}

// getScratch checks a scratch out of the pool with tf sized for n
// terms. The map is cleared here rather than at put time so a scorer
// that iterates DocStats.TF never observes another query's terms.
func getScratch(n int) *scoreScratch {
	s := scratchPool.Get().(*scoreScratch)
	if cap(s.tf) < n {
		s.tf = make([]int64, n)
	}
	s.tf = s.tf[:n]
	clear(s.tfm)
	return s
}

func putScratch(s *scoreScratch) {
	scratchPool.Put(s)
}
