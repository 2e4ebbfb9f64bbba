package core

import "sync"

// scoreScratch is one scoring phase's scratch: the term-frequency slice
// handed to the scorer through ranking.DocStats.TFs, and the pruned
// walk's staged-bound table (stagedUB, see prunedWorker). Pooled because
// every query needs one; nothing in it escapes into returned results —
// DocStats is read during the ScoreIndexed call and Result copies only
// the docID and score — so recycling is invisible to callers.
type scoreScratch struct {
	tf       []int64
	stagedUB []float64
}

var scratchPool = sync.Pool{New: func() any { return &scoreScratch{} }}

// getScratch checks a scratch out of the pool with tf sized for n
// terms.
func getScratch(n int) *scoreScratch {
	s := scratchPool.Get().(*scoreScratch)
	if cap(s.tf) < n {
		s.tf = make([]int64, n)
	}
	s.tf = s.tf[:n]
	return s
}

func putScratch(s *scoreScratch) {
	scratchPool.Put(s)
}
