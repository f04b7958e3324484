// Package lib is deadexport golden testdata: exported names that only
// tests (or nothing) reference are reported; names package app uses,
// and methods that satisfy an interface the program mentions, are not.
package lib

import "container/heap"

func Used() {}

func Unused() {} // want `exported func Unused has no non-test reference in the module`

func OnlyTests() {} // want `exported func OnlyTests has no non-test reference in the module`

const UsedConst = 1

const UnusedConst = 2 // want `exported const UnusedConst has no non-test reference`

var UsedVar int

var UnusedVar int // want `exported var UnusedVar has no non-test reference`

type UsedType struct{}

type UnusedType struct{} // want `exported type UnusedType has no non-test reference`

func (UsedType) UsedMethod() {}

func (UsedType) UnusedMethod() {} // want `exported method UsedType\.UnusedMethod has no non-test reference`

// Allowed is unused but excused: no finding, and the directive is not
// stale. A one-package run must not call it stale either.
//
//lint:allow deadexport golden: an excused unused export
func Allowed() {}

// String is found by fmt through a type assertion, so it counts as used.
func (UsedType) String() string { return "used" }

// Shape is the interface package app holds a Square in.
type Shape interface{ Area() int }

type Square struct{ Side int }

// Area is never called by name: it is how Square satisfies Shape.
func (s Square) Area() int { return s.Side * s.Side }

// queue satisfies heap.Interface, which spells interface{} "any";
// container/heap calls its methods.
type queue []int

func (q queue) Len() int            { return len(q) }
func (q queue) Less(i, j int) bool  { return q[i] < q[j] }
func (q queue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x interface{}) { *q = append(*q, x.(int)) }
func (q *queue) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Smallest heap-sorts xs and returns its least element.
func Smallest(xs []int) int {
	q := queue(append([]int(nil), xs...))
	heap.Init(&q)
	return heap.Pop(&q).(int)
}

// unexported names are the compiler's business, not deadexport's.
func helper() {}
