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

// TestDefaultCodecKeepsPaceWithPort is the time claim behind the default
// codec (DESIGN §12): on the benchmark's 32×40 card, a pipelined cold
// load of every bank function under DefaultCodec never waits on its
// decoder — its decoder emits a byte per configuration clock and the
// port takes at least that — while framediff, at 1.25 cycles per byte,
// stalls the port on every load. Both configure the same fabric, so
// outputs are byte-identical to each other and to the reference.
func TestDefaultCodecKeepsPaceWithPort(t *testing.T) {
	g := fpga.Geometry{Rows: 32, Cols: 40}
	def := newController(t, Config{Geometry: g})
	fd := newController(t, Config{Geometry: g, Codec: "framediff"})
	for _, f := range algos.Bank() {
		install(t, def, f, DefaultCodec)
		install(t, fd, f, "framediff")
		in := make([]byte, f.BlockBytes)
		for i := range in {
			in[i] = byte(i*29 + 3)
		}
		want, err := f.Exec(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Controller{def, fd} {
			out, br, err := c.Execute(f.ID(), in)
			if err != nil {
				t.Fatalf("%s under %s: %v", f.Name(), c.cfg.Codec, err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("%s under %s: output differs from the reference", f.Name(), c.cfg.Codec)
			}
			if br.Get(sim.PhaseConfigure) == 0 {
				t.Fatalf("%s under %s: the call loaded nothing", f.Name(), c.cfg.Codec)
			}
			stall := br.Get(sim.PhasePipeStall)
			switch {
			case c == def && stall != 0:
				t.Errorf("%s: cold load under %s stalls %v, want 0", f.Name(), DefaultCodec, stall)
			case c == fd && stall <= 0:
				t.Errorf("%s: cold load under framediff stalls %v, want > 0", f.Name(), stall)
			}
			c.Evict(f.ID())
		}
	}
}
