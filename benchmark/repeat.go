package main

import (
	"context"
	"fmt"
	"io"
)

// worsening is how much worse b reads than a, as a share of a, in the
// metric's own direction: positive means b is worse.
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// checkRepeat runs two full end-to-end sets of the same code back to
// back and fails if any figure moved, in either direction, by more
// than the metric's bound — the noise floor a later comparison between
// two commits has to clear. Virtual time must not move at all.
func checkRepeat(ctx context.Context, ws []*workload, cfg config, stdout io.Writer) (bool, error) {
	var sets [2]*report
	for i := range sets {
		var err error
		if sets[i], err = runSet(ctx, ws, cfg, traceOff); err != nil {
			return false, err
		}
	}
	ok := sets[0].Correct && sets[1].Correct
	fmt.Fprintf(stdout, "%-20s %-15s %14s %14s %8s %7s\n", "workload", "metric", "set 1", "set 2", "moved", "bound")
	for i, w := range ws {
		for _, m := range endToEnd {
			a, b := m.figure(sets[0].Workloads[i].EndToEnd[m.Name]), m.figure(sets[1].Workloads[i].EndToEnd[m.Name])
			moved := max(worsening(m, a, b), worsening(m, b, a))
			bound := m.Bound
			if m.Clock == "virtual" {
				bound = 0 // one submitter: the cycle model must repeat exactly
			}
			verdict := ""
			if moved > bound {
				verdict = "  FAIL"
				ok = false
			}
			fmt.Fprintf(stdout, "%-20s %-15s %14.4f %14.4f %7.2f%% %6.0f%%%s\n", w.name, m.Name, a, b, 100*moved, 100*bound, verdict)
		}
	}
	return ok, nil
}
