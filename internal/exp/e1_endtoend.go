package exp

import (
	"bytes"
	"fmt"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/sim"
)

// E1 — "Figure 1 as a working system". Boot the card, install the whole
// algorithm bank, call every function once end-to-end over PCI, and check
// each output against the behavioural model. The table reports, per
// function, its footprint and the cold-call latency breakdown.
type E1Result struct {
	Table    Table
	Verified int
	Total    int
}

// RunE1 executes the end-to-end experiment.
func RunE1() (*E1Result, error) {
	cp, err := core.New(core.Config{})
	if err != nil {
		return nil, err
	}
	if _, err := cp.InstallBank(); err != nil {
		return nil, err
	}
	res := &E1Result{
		Table: Table{
			Title: fmt.Sprintf("E1  End-to-end cold call per bank function (%s codec, LRU)", cp.Codec().Name()),
			Header: []string{"function", "frames", "raw B", "comp B", "cold latency",
				"pci", "config+decomp", "exec", "ok"},
		},
	}
	for _, f := range algos.Bank() {
		rec, _, err := cp.Controller().ROM().FindByID(f.ID())
		if err != nil {
			return nil, err
		}
		in := make([]byte, 4*f.BlockBytes)
		for i := range in {
			in[i] = byte(i*13 + int(f.ID()))
		}
		call, err := cp.Call(f.Name(), in)
		if err != nil {
			return nil, fmt.Errorf("exp: E1 %s: %w", f.Name(), err)
		}
		want, err := f.Exec(in)
		if err != nil {
			return nil, err
		}
		ok := bytes.Equal(call.Output, want)
		res.Total++
		if ok {
			res.Verified++
		}
		cfgTime := call.Breakdown.Get(sim.PhaseConfigure) + call.Breakdown.Get(sim.PhaseDecompress)
		res.Table.AddRow(
			f.Name(), int(rec.FrameCount), int(rec.RawSize), int(rec.CompSize),
			call.Latency.String(),
			call.Breakdown.Get(sim.PhasePCI).String(),
			cfgTime.String(),
			call.Breakdown.Get(sim.PhaseExec).String(),
			fmt.Sprintf("%v", ok),
		)
		if err := cp.Controller().CheckInvariants(); err != nil {
			return nil, err
		}
	}
	res.Table.Caption = fmt.Sprintf("%d/%d functions verified against the behavioural model", res.Verified, res.Total)
	return res, nil
}
