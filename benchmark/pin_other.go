//go:build !linux

package main

// pinProcess is a no-op where the scheduler cannot be told: the
// figures are then as noisy as the machine.
func pinProcess() error { return nil }
