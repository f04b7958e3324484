package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {0.001, 10}, {1, 100}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.999); got != 7 {
		t.Errorf("one sample: got %d, want 7", got)
	}
}

func TestBeyondCountsStrictlyAbove(t *testing.T) {
	sorted := []int64{1, 2, 2, 3, 9, 9}
	for v, want := range map[int64]int{0: 6, 1: 5, 2: 3, 8: 2, 9: 0} {
		if got := beyond(sorted, v); got != want {
			t.Errorf("beyond(%d) = %d, want %d", v, got, want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because that is what the acceptance driver computes across
// runs; these vectors were taken from it.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		vals        []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5}, // five rounds, unsorted on purpose
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3, 9}, 1.5, 6, 10.5}, // two values: the rule extrapolates
		{[]float64{42}, 42, 42, 42},
	} {
		s := summarize(c.vals)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 || s.N != len(c.vals) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.vals, s, c.q1, c.med, c.q3)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

// The reported figure is the quartile on the metric's better side, so a
// burst of interference that slows half the rounds does not move it.
func TestFigureIgnoresABurstOfSlowRounds(t *testing.T) {
	opsPerS := metricDef{Better: higher}
	p50 := metricDef{Better: lower}
	quiet := make([]float64, 20)
	burst := make([]float64, 20)
	for i := range quiet {
		quiet[i] = 100 + float64(i%4) // 100..103
		burst[i] = quiet[i]
		if i >= 10 {
			burst[i] *= 0.6 // ops/s falls by 40% in ten of twenty rounds
		}
	}
	if q, b := opsPerS.figure(summarize(quiet)), opsPerS.figure(summarize(burst)); b < 0.97*q {
		t.Errorf("ops/s figure fell from %v to %v under a burst", q, b)
	}
	if m := summarize(burst).Median; m > 0.9*summarize(quiet).Median {
		t.Errorf("the median was expected to move under the burst, got %v", m)
	}
	for i := range burst {
		burst[i] = quiet[i]
		if i >= 10 {
			burst[i] *= 1.4 // latency rises
		}
	}
	if q, b := p50.figure(summarize(quiet)), p50.figure(summarize(burst)); b > 1.03*q {
		t.Errorf("latency figure rose from %v to %v under a burst", q, b)
	}
	// And it is a quartile, not the extreme: one lucky round is not it.
	lucky := append([]float64{50}, quiet[1:]...)
	if f := p50.figure(summarize(lucky)); f < 100 {
		t.Errorf("latency figure %v follows a single lucky round", f)
	}
}

func TestSpreadIsIQROverMedian(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5})
	if got, want := s.spread(), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := (summary{}).spread(); got != 0 {
		t.Errorf("zero summary spread = %v, want 0", got)
	}
}

func TestWorseningFollowsDirection(t *testing.T) {
	up := metricDef{Better: higher}
	down := metricDef{Better: lower}
	if got := worsening(up, 100, 90); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("throughput 100 -> 90: worsening %v, want 0.1", got)
	}
	if got := worsening(down, 100, 90); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("latency 100 -> 90: worsening %v, want -0.1", got)
	}
	if got := worsening(down, 0, 5); got != 0 {
		t.Errorf("zero base: worsening %v, want 0", got)
	}
}
