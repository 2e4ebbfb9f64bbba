//go:build !race

package postings

const raceEnabled = false
