package exp

import (
	"fmt"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/sim"
)

// E9 — difference-based reconfiguration (the XAPP290 flow the paper's
// proof-of-concept cites). For every bank function: evict it, call it
// again, and measure the reload's configuration path under the ordinary
// flow (full ROM + decompress + port write) and the difference flow
// (generation-verified revival of the lazily evicted frames). The revival
// fires only when the frames were not reused in between — here they are
// not, which is the flow's best case; the trace-level benefit under real
// churn depends on how often that holds (see the caption).
type E9Result struct {
	Table Table
	// FullReload and DiffReload config-path time per function.
	FullReload map[string]sim.Time
	DiffReload map[string]sim.Time
}

// RunE9 executes the difference-flow experiment.
func RunE9() (*E9Result, error) {
	res := &E9Result{
		Table: Table{
			Title:  "E9  Difference-based reconfiguration: reload cost after eviction",
			Header: []string{"function", "frames", "full reload", "diff reload", "saving"},
		},
		FullReload: make(map[string]sim.Time),
		DiffReload: make(map[string]sim.Time),
	}
	reload := func(diff bool, f *algos.Function) (sim.Time, uint16, error) {
		cp, err := core.New(core.Config{DiffReload: diff})
		if err != nil {
			return 0, 0, err
		}
		if _, err := cp.Install(f); err != nil {
			return 0, 0, err
		}
		in := make([]byte, f.BlockBytes)
		in[0] = 1
		if _, err := cp.Call(f.Name(), in); err != nil {
			return 0, 0, err
		}
		rec, _, err := cp.Controller().ROM().FindByID(f.ID())
		if err != nil {
			return 0, 0, err
		}
		cp.Controller().Evict(f.ID())
		call, err := cp.Call(f.Name(), in)
		if err != nil {
			return 0, 0, err
		}
		cfg := call.Breakdown.Get(sim.PhaseROM) +
			call.Breakdown.Get(sim.PhaseDecompress) +
			call.Breakdown.Get(sim.PhaseConfigure) +
			call.Breakdown.Get(sim.PhaseOverhead) +
			call.Breakdown.Get(sim.PhasePipeStall)
		return cfg, rec.FrameCount, nil
	}
	for _, f := range algos.Bank() {
		full, frames, err := reload(false, f)
		if err != nil {
			return nil, fmt.Errorf("exp: E9 full %s: %w", f.Name(), err)
		}
		diffed, _, err := reload(true, f)
		if err != nil {
			return nil, fmt.Errorf("exp: E9 diff %s: %w", f.Name(), err)
		}
		res.FullReload[f.Name()] = full
		res.DiffReload[f.Name()] = diffed
		res.Table.AddRow(f.Name(), int(frames), full.String(), diffed.String(),
			fmt.Sprintf("%.0fx", float64(full)/float64(diffed)))
	}
	res.Table.Caption = "diff reload = generation-verified revival (bookkeeping only); it fires only when the " +
		"evicted frames were not reused, the flow's best case — under churn the frames are usually recycled first"
	return res, nil
}
