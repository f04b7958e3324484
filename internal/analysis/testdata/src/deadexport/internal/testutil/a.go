// Package testutil is deadexport golden testdata: internal/testutil
// exists for tests, so its unused exports are not reported.
package testutil

func Helper() {}
