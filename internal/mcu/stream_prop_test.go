package mcu

import (
	"bytes"
	"fmt"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/fpga"
	"agilefpga/internal/sim"
)

// TestStreamNeverSlower is the identity behind a streamed call (DESIGN
// §12): for every bank function at 1 B, one granule, two granules, 1 KiB
// and 16 KiB, a resident call's breakdown sums exactly to its streamed
// dataflow latency; that latency is at most the whole-item charge —
// data-in beats + 4, ExecCycles and data-out beats + 4 back to back —
// and equal to it when the item is one granule; the fabric is charged
// exactly ExecCycles; and the output equals the host reference.
func TestStreamNeverSlower(t *testing.T) {
	c := newController(t, Config{Geometry: fpga.DefaultGeometry, RAMBytes: 256 * 1024})
	rng := sim.NewRNG(49)
	for _, f := range algos.Bank() {
		install(t, c, f, DefaultCodec)
		g := f.Granule()
		if g%f.BlockBytes != 0 || g%int(f.InBus) != 0 {
			t.Errorf("%s: granule %d is not whole blocks of %d and bus words of %d", f.Name(), g, f.BlockBytes, f.InBus)
		}
		for _, size := range []int{1, g, 2 * g, 1024, 16 * 1024} {
			t.Run(fmt.Sprintf("%s/%d", f.Name(), size), func(t *testing.T) {
				in := make([]byte, size)
				for i := range in {
					in[i] = byte(rng.Uint64())
				}
				want, err := f.Exec(in)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := c.Execute(f.ID(), in); err != nil { // make it resident
					t.Fatal(err)
				}
				out, br, err := c.Execute(f.ID(), in)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, want) {
					t.Fatal("output differs from the reference")
				}
				flow := c.LastChainStages()[0].Flow
				staged := Padded(size, int(f.InBus))
				outPadded := Padded(f.OutputLen(staged), int(f.OutBus))
				whole := c.mcuDom.Span(uint64(staged/int(f.InBus))+4) + c.fabDom.Span(f.ExecCycles(staged)) +
					c.mcuDom.Span(uint64(outPadded/int(f.OutBus))+4)
				if got := flow.In + flow.Exec + flow.Out; got != whole {
					t.Errorf("module busy times sum to %v, whole-item charge %v", got, whole)
				}
				if br.Total() != flow.Latency {
					t.Errorf("breakdown %v sums to %v, streamed latency %v", br, br.Total(), flow.Latency)
				}
				if br.Total() > whole {
					t.Errorf("streamed %v above the whole-item charge %v", br.Total(), whole)
				}
				if staged <= g && br.Total() != whole {
					t.Errorf("one granule streamed %v, whole-item %v", br.Total(), whole)
				}
				if got, want := br.Get(sim.PhaseExec), c.fabDom.Span(f.ExecCycles(staged)); got != want {
					t.Errorf("PhaseExec = %v, ExecCycles on the fabric clock %v", got, want)
				}
			})
		}
		c.Evict(f.ID())
	}
}
