package main

import (
	"slices"
	"testing"
)

// Three synthetic rungs over five ops: every op costs the innermost
// rung 10, the middle rung adds 5, the outer rung adds 2 — except op 3,
// a cold load that costs the innermost rung 500 more on every rung.
// Pairing by op index cancels the cold load out of the outer rungs.
func TestSelfTimesPairSpansByOp(t *testing.T) {
	inner := []int64{10, 10, 10, 510, 10}
	mid := make([]int64, len(inner))
	outer := make([]int64, len(inner))
	for i, d := range inner {
		mid[i] = d + 5
		outer[i] = d + 5 + 2
	}
	all := func(int) bool { return true }
	got := selfTimes([][]int64{outer, mid, inner}, all)
	if want := []float64{2, 5, 10}; !slices.Equal(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}

	// Restricting to a subset of ops (single calls on the mixed
	// workload) must drop the others from every rung alike.
	onlyCold := func(i int) bool { return i == 3 }
	got = selfTimes([][]int64{outer, mid, inner}, onlyCold)
	if want := []float64{2, 5, 510}; !slices.Equal(got, want) {
		t.Errorf("self times over the cold op = %v, want %v", got, want)
	}
}

func TestSelfTimesTakeTheMedianDifference(t *testing.T) {
	// Noise on single ops of one rung must not move its self time.
	outer := []int64{20, 21, 90, 20, 19}
	inner := []int64{10, 10, 10, 10, 10}
	got := selfTimes([][]int64{outer, inner}, func(int) bool { return true })
	if want := []float64{10, 10}; !slices.Equal(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestMedianWhere(t *testing.T) {
	durs := []int64{1000, 2000, 3000, 40000}
	even := func(i int) bool { return i%2 == 0 }
	if got := medianWhere(durs, even); got != 2 {
		t.Errorf("medianWhere = %v us, want 2", got)
	}
	if got := medianWhere(durs, func(int) bool { return false }); got != 0 {
		t.Errorf("medianWhere over nothing = %v, want 0", got)
	}
}

func TestEveryWorkloadLadderEndsCoreMcuAlgos(t *testing.T) {
	for _, w := range workloads {
		var layers []string
		for _, r := range w.rungs() {
			layers = append(layers, r.layer)
		}
		want := []string{"core", "mcu", "algos"}
		if w.backends > 0 {
			want = append([]string{"client", "server", "cluster"}, want...)
		}
		if w.router {
			want = append([]string{"router"}, want...)
		}
		if !slices.Equal(layers, want) {
			t.Errorf("%s: ladder %v, want %v", w.name, layers, want)
		}
	}
}
