package mcu

import (
	"bytes"
	"fmt"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/compress"
	"agilefpga/internal/fpga"
	"agilefpga/internal/sim"
)

// TestPipelineNeverSlower is the property DESIGN §12 commits to: for
// every bank function × codec × window size, the pipelined cold-load
// model finishes no later than the additive sequential model, and the
// two leave byte-identical fabric state (the pipeline is a timing
// model only — it must never change what gets configured).
func TestPipelineNeverSlower(t *testing.T) {
	windows := []int{64, 256, 1024}
	for _, codecName := range compress.Names() {
		for _, win := range windows {
			codecName, win := codecName, win
			t.Run(fmt.Sprintf("%s_w%d", codecName, win), func(t *testing.T) {
				seqC := newController(t, Config{
					Geometry:    fpga.DefaultGeometry,
					WindowBytes: win, SequentialConfig: true,
				})
				pipeC := newController(t, Config{
					Geometry:    fpga.DefaultGeometry,
					WindowBytes: win,
				})
				for _, f := range algos.Bank() {
					install(t, seqC, f, codecName)
					install(t, pipeC, f, codecName)

					in := make([]byte, f.BlockBytes)
					for i := range in {
						in[i] = byte(i*13 + 5)
					}
					seqOut, seqBr, err := seqC.Execute(f.ID(), in)
					if err != nil {
						t.Fatalf("%s sequential: %v", f.Name(), err)
					}
					pipeOut, pipeBr, err := pipeC.Execute(f.ID(), in)
					if err != nil {
						t.Fatalf("%s pipelined: %v", f.Name(), err)
					}
					if !bytes.Equal(seqOut, pipeOut) {
						t.Fatalf("%s: outputs diverge between timing models", f.Name())
					}
					if pipeBr.Total() > seqBr.Total() {
						t.Errorf("%s: pipelined cold load %v slower than sequential %v",
							f.Name(), pipeBr.Total(), seqBr.Total())
					}
					// The config path proper (the part the pipeline reorders)
					// must also not regress on its own.
					cfgPath := func(br sim.Breakdown) sim.Time {
						return br.Get(sim.PhaseROM) + br.Get(sim.PhaseDecompress) +
							br.Get(sim.PhaseConfigure) + br.Get(sim.PhasePipeStall)
					}
					if cfgPath(pipeBr) > cfgPath(seqBr) {
						t.Errorf("%s: pipelined config path %v slower than sequential %v",
							f.Name(), cfgPath(pipeBr), cfgPath(seqBr))
					}
					// Byte-identical fabric state, frame by frame.
					g := seqC.Fabric().Geometry()
					for fi := 0; fi < g.NumFrames(); fi++ {
						sf, errS := seqC.Fabric().ReadFrame(fi)
						pf, errP := pipeC.Fabric().ReadFrame(fi)
						if (errS == nil) != (errP == nil) {
							t.Fatalf("%s: frame %d readable in one model only", f.Name(), fi)
						}
						if errS == nil && !bytes.Equal(sf, pf) {
							t.Fatalf("%s: frame %d differs between timing models", f.Name(), fi)
						}
					}
					// Keep loads cold; evict from both so the resident sets
					// stay in lockstep.
					seqC.Evict(f.ID())
					pipeC.Evict(f.ID())
				}
			})
		}
	}
}
