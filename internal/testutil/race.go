//go:build race

package testutil

// RaceEnabled reports whether the binary was built with -race. The race
// detector makes sync.Pool drop a share of its Puts at random, so a
// test that counts allocations on a pooled path holds its exact figure
// only when RaceEnabled is false.
const RaceEnabled = true
