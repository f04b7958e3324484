package mcu

import (
	"bytes"
	"fmt"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/bitstream"
	"agilefpga/internal/compress"
	"agilefpga/internal/fpga"
	"agilefpga/internal/memory"
	"agilefpga/internal/sim"
)

// TestPipelineNeverSlower is the identity DESIGN §12 commits to: for
// every bank function × codec × window size, a cold load's config path
// (ROM past the record lookup + decompress + configure + stall) plus the
// overlap the pipeline reports saved equals the load plan's ROM,
// decoder and port cycles charged back to back. The saving is never
// negative, so the pipelined load is never slower than the additive
// charge; and the pipeline is a timing model only, so the output equals
// the reference.
func TestPipelineNeverSlower(t *testing.T) {
	windows := []int{64, 256, 1024}
	for _, codecName := range compress.Names() {
		for _, win := range windows {
			t.Run(fmt.Sprintf("%s_w%d", codecName, win), func(t *testing.T) {
				c := newController(t, Config{Geometry: fpga.DefaultGeometry, WindowBytes: win})
				var asm bitstream.Builder
				for _, f := range algos.Bank() {
					install(t, c, f, codecName)
					in := make([]byte, f.BlockBytes)
					for i := range in {
						in[i] = byte(i*13 + 5)
					}
					want, err := f.Exec(in)
					if err != nil {
						t.Fatal(err)
					}
					savedBefore := c.Stats().PipeOverlapSaved
					out, br, err := c.Execute(f.ID(), in)
					if err != nil {
						t.Fatalf("%s: %v", f.Name(), err)
					}
					if !bytes.Equal(out, want) {
						t.Fatalf("%s: output differs from the reference", f.Name())
					}
					saved := c.Stats().PipeOverlapSaved - savedBefore
					// The port stage's cycles are one per byte of the stream
					// the load wrote into the frames it was placed in.
					p := c.plans[f.ID()]
					stream, err := asm.AppendAssemble(c.cfg.Geometry, c.fab.IDCode(), c.kernel.table[f.ID()].frames, p.images, p.keys)
					if err != nil {
						t.Fatal(err)
					}
					additive := c.mcuDom.Span(p.romCycles) + c.cfgDom.Span(p.decompCycles) + c.cfgDom.Span(uint64(len(stream)))
					asm.Reset()
					_, scanned, err := c.findRecord(f.ID())
					if err != nil {
						t.Fatal(err)
					}
					lookup := c.mcuDom.Span(memory.ReadCycles(scanned * memory.RecordBytes))
					pipelined := br.Get(sim.PhaseROM) - lookup + br.Get(sim.PhaseDecompress) +
						br.Get(sim.PhaseConfigure) + br.Get(sim.PhasePipeStall)
					if saved > additive { // a negative saving wraps
						t.Fatalf("%s: overlap saved %v exceeds the additive charge %v", f.Name(), saved, additive)
					}
					if pipelined+saved != additive {
						t.Errorf("%s: config path %v + saved %v = %v, additive charge %v",
							f.Name(), pipelined, saved, pipelined+saved, additive)
					}
					c.Evict(f.ID()) // keep every load cold
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
