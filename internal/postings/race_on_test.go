//go:build race

package postings

const raceEnabled = true
