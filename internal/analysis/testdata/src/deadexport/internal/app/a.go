// Package app is deadexport golden testdata: the non-test caller of
// package lib. It exports nothing, so it has nothing to report.
package app

import (
	"fmt"

	"agilefpga/internal/analysis/testdata/src/deadexport/internal/lib"
)

func run() int {
	lib.Used()
	var t lib.UsedType
	t.UsedMethod()
	fmt.Println(t)
	var s lib.Shape = lib.Square{Side: lib.UsedConst + lib.UsedVar}
	return s.Area() + lib.Smallest([]int{3, 1, 2})
}
