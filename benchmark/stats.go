package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0 < q ≤ 1) of an ascending sample
// by nearest rank: the smallest value with at least q of the sample at
// or below it. An empty sample reads 0.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// beyond counts the samples strictly above v — the support behind a
// tail percentile (the choosing-metrics guide wants at least ten).
func beyond(sorted []int64, v int64) int {
	i, _ := slices.BinarySearch(sorted, v+1)
	return len(sorted) - i
}

// summary is one metric's per-round values reduced to quartiles.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize reduces per-round values to median and quartiles. The
// quartiles follow Python's statistics.quantiles(values, n=4) — the
// rule the acceptance driver applies across runs — so a spread printed
// here means the same thing as one the driver computes.
func summarize(vals []float64) summary {
	s := slices.Clone(vals)
	slices.Sort(s)
	return summary{Median: quantile4(s, 2), Q1: quantile4(s, 1), Q3: quantile4(s, 3), N: len(s)}
}

// quantile4 is the i-th quartile cut of an ascending sample under the
// "exclusive" rule: position i·(n+1)/4, linearly interpolated, clamped
// to the sample. One value is its own quartiles.
func quantile4(sorted []float64, i int) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	j := min(max(i*(n+1)/4, 1), n-1)
	delta := float64(i*(n+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

func median(vals []float64) float64 { return summarize(vals).Median }

// spread is the inter-quartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
