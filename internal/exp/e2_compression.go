package exp

import (
	"fmt"

	"agilefpga/internal/algos"
	"agilefpga/internal/compress"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/sim"
)

// E2 — bitstream compression. For every codec: total bank bitstream size,
// compression ratio, and the measured cold configuration time (ROM read +
// window decompression + port write) summed over the bank. This is the
// experiment the paper's §2.2–2.3 compressed-ROM design and §4 open
// problem (exploit CLB symmetry — our framediff codec) call for.
type E2Result struct {
	Table Table
	// Ratio and config time per codec, for assertions.
	Ratio      map[string]float64
	ConfigTime map[string]sim.Time
}

// RunE2 executes the compression experiment.
func RunE2() (*E2Result, error) {
	res := &E2Result{
		Table: Table{
			Title: "E2  Bitstream compression per codec (whole bank, cold loads)",
			Header: []string{"codec", "raw B", "comp B", "ratio",
				"ROM+decomp+port time", "vs none"},
		},
		Ratio:      make(map[string]float64),
		ConfigTime: make(map[string]sim.Time),
	}
	var baseline sim.Time
	for _, codecName := range compress.Names() {
		cp, err := core.New(core.Config{Codec: codecName})
		if err != nil {
			return nil, err
		}
		if _, err := cp.InstallBank(); err != nil {
			return nil, err
		}
		var rawB, compB int
		for _, f := range algos.Bank() {
			rec, _, err := cp.Controller().ROM().FindByID(f.ID())
			if err != nil {
				return nil, err
			}
			rawB += int(rec.RawSize)
			compB += int(rec.CompSize)
		}
		// Cold-load every function once, summing the configuration path.
		var cfgTime sim.Time
		for _, f := range algos.Bank() {
			in := make([]byte, f.BlockBytes)
			for i := range in {
				in[i] = byte(i + 1)
			}
			call, err := cp.Call(f.Name(), in)
			if err != nil {
				return nil, fmt.Errorf("exp: E2 %s/%s: %w", codecName, f.Name(), err)
			}
			cfgTime += call.Breakdown.Get(sim.PhaseROM) +
				call.Breakdown.Get(sim.PhaseDecompress) +
				call.Breakdown.Get(sim.PhaseConfigure) +
				call.Breakdown.Get(sim.PhasePipeStall)
			// Evict so the next load is cold even though the bank
			// exceeds the device anyway.
			cp.Controller().Evict(f.ID())
		}
		ratio := float64(rawB) / float64(compB)
		res.Ratio[codecName] = ratio
		res.ConfigTime[codecName] = cfgTime
		if codecName == "none" {
			baseline = cfgTime
		}
		rel := "1.00x"
		if baseline > 0 {
			rel = fmt.Sprintf("%.2fx", float64(baseline)/float64(cfgTime))
		}
		res.Table.AddRow(codecName, rawB, compB, ratio, cfgTime.String(), rel)
	}
	res.Table.Caption = "ratio = raw/compressed; time = ROM read + window decompression + configuration port, summed over all 16 cold loads"
	return res, nil
}

// RunE2PerFunction breaks compression down per bank function for one
// codec (used by cmd/bitc and the detailed report).
func RunE2PerFunction(codecName string) (*Table, error) {
	g := fpga.DefaultGeometry
	codec, err := compress.New(codecName, g.FrameBytes())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("E2a  Per-function bitstream sizes (%s)", codecName),
		Header: []string{"function", "LUTs", "frames", "raw B", "comp B", "ratio"},
	}
	for _, f := range algos.Bank() {
		rec, blob, err := core.BuildImage(g, f, codec, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow(f.Name(), f.LUTs, int(rec.FrameCount), int(rec.RawSize), len(blob),
			float64(rec.RawSize)/float64(len(blob)))
	}
	return t, nil
}
