package main

import (
	"fmt"
	"math"
)

// compareSets prints both runs of every end-to-end metric with their
// relative difference and reports whether every pair agrees within the
// metric's bound, in either direction: two runs of one binary have no
// better and worse side.
func compareSets(first, second []*runResult) bool {
	agree := true
	fmt.Println("== check-repeat: two runs of the same binary")
	for i, a := range first {
		b := second[i]
		for _, ms := range endToEnd {
			x, y := a.EndToEnd[ms.Name], b.EndToEnd[ms.Name]
			spread := math.Abs(x-y) / x
			verdict := "ok"
			if spread > ms.Bound {
				verdict = "DISAGREE"
				agree = false
			}
			fmt.Printf("   %-18s %-14s %12.4f %12.4f %s  spread %.3f  bound %.2f  %s\n", a.Workload, ms.Name, x, y, ms.Unit, spread, ms.Bound, verdict)
		}
	}
	return agree
}
