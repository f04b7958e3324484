//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop a random share of
// Puts, so allocation counts of pooled paths run higher than the
// product's and their gates need a race-only bound.
const raceEnabled = true
