package exp

import (
	"fmt"

	"agilefpga/internal/algos"
	"agilefpga/internal/compress"
	"agilefpga/internal/core"
	"agilefpga/internal/sim"
)

// E18 — pipelined cold loads. For every codec: the whole-bank cold-load
// configuration path (ROM read + window decompression + port write +
// pipeline stalls) under the pipelined model (DESIGN §12), the additive
// charge of the same stages run back to back — the pipelined path plus
// the overlap the pipeline reports it saved — and the resulting
// speedup. The pipeline hides the ROM stream behind the configuration
// port for byte-rate codecs and leaves only genuine decoder-bound stalls
// exposed for the expensive ones.
type E18Result struct {
	Table Table
	// Sequential and Pipelined config-path time per codec, plus the
	// ratio, for assertions.
	Sequential map[string]sim.Time
	Pipelined  map[string]sim.Time
	Speedup    map[string]float64
	// Stall is the pipeline-bubble time left on the critical path, and
	// Saved the virtual time the overlap removed versus the additive
	// charge (both summed over the bank).
	Stall map[string]sim.Time
	Saved map[string]sim.Time
}

// e18ColdLoadPath cold-loads every bank function once on a fresh
// co-processor and sums the configuration path (ROM + decompress + port
// + pipeline stalls), evicting after each call so every load stays cold.
func e18ColdLoadPath(codecName string) (sim.Time, *core.CoProcessor, error) {
	cp, err := core.New(core.Config{Codec: codecName})
	if err != nil {
		return 0, nil, err
	}
	if _, err := cp.InstallBank(); err != nil {
		return 0, nil, err
	}
	var cfgTime sim.Time
	for _, f := range algos.Bank() {
		in := make([]byte, f.BlockBytes)
		for i := range in {
			in[i] = byte(i + 1)
		}
		call, err := cp.Call(f.Name(), in)
		if err != nil {
			return 0, nil, fmt.Errorf("exp: E18 %s/%s: %w", codecName, f.Name(), err)
		}
		cfgTime += call.Breakdown.Get(sim.PhaseROM) +
			call.Breakdown.Get(sim.PhaseDecompress) +
			call.Breakdown.Get(sim.PhaseConfigure) +
			call.Breakdown.Get(sim.PhasePipeStall)
		cp.Controller().Evict(f.ID())
	}
	return cfgTime, cp, nil
}

// RunE18 executes the sequential-vs-pipelined cold-load experiment.
func RunE18() (*E18Result, error) {
	res := &E18Result{
		Table: Table{
			Title: "E18  Sequential vs pipelined cold load per codec (whole bank)",
			Header: []string{"codec", "sequential", "pipelined", "speedup",
				"stall", "overlap saved"},
		},
		Sequential: make(map[string]sim.Time),
		Pipelined:  make(map[string]sim.Time),
		Speedup:    make(map[string]float64),
		Stall:      make(map[string]sim.Time),
		Saved:      make(map[string]sim.Time),
	}
	for _, codecName := range compress.Names() {
		pipe, cp, err := e18ColdLoadPath(codecName)
		if err != nil {
			return nil, err
		}
		st := cp.Stats()
		seq := pipe + st.PipeOverlapSaved
		res.Sequential[codecName] = seq
		res.Pipelined[codecName] = pipe
		res.Speedup[codecName] = float64(seq) / float64(pipe)
		res.Stall[codecName] = st.PipeStallTime
		res.Saved[codecName] = st.PipeOverlapSaved
		res.Table.AddRow(codecName, seq.String(), pipe.String(),
			fmt.Sprintf("%.2fx", res.Speedup[codecName]),
			st.PipeStallTime.String(), st.PipeOverlapSaved.String())
	}
	res.Table.Caption = "config path = ROM read + window decompression + configuration port + stalls, summed over all 16 cold loads; sequential charges the stages back to back, pipelined overlaps them per window"
	return res, nil
}
