package mcu

// Randomised state-machine stress: a long interleaving of executes,
// evictions, clobbers and downloads on a small device, with the mini-OS
// bookkeeping invariant checked after every single operation, across the
// feature matrix (scatter × diff × prefetch). This is the test that
// catches ownership leaks no targeted test thinks of.

import (
	"bytes"
	"fmt"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/fpga"
	"agilefpga/internal/sim"
)

func TestMiniOSRandomOperations(t *testing.T) {
	configs := []Config{
		{Geometry: fpga.Geometry{Rows: 32, Cols: 24}},
		{Geometry: fpga.Geometry{Rows: 32, Cols: 24}, ContiguousOnly: true},
		{Geometry: fpga.Geometry{Rows: 32, Cols: 24}, DiffReload: true},
		{Geometry: fpga.Geometry{Rows: 32, Cols: 24}, Prefetch: true},
		{Geometry: fpga.Geometry{Rows: 32, Cols: 24}, DiffReload: true, Prefetch: true},
	}
	// A mixed-footprint subset that fits the 24-frame device one or two
	// at a time.
	fns := []*algos.Function{
		algos.CRC32(), algos.GFMul(), algos.DES(), algos.FIR(), algos.AES128(), algos.FFT(),
	}
	for ci, cfg := range configs {
		cfg := cfg
		// Every configuration runs the one pipelined timing model: "seqfalse".
		t.Run(fmt.Sprintf("cfg%d_scatter%v_diff%v_pf%v_seqfalse", ci, !cfg.ContiguousOnly, cfg.DiffReload, cfg.Prefetch),
			func(t *testing.T) {
				c := newController(t, cfg)
				for _, f := range fns {
					install(t, c, f, "framediff")
				}
				rng := sim.NewRNG(uint64(ci)*7919 + 17)
				for step := 0; step < 300; step++ {
					f := fns[rng.Intn(len(fns))]
					switch rng.Intn(10) {
					case 0: // host-initiated eviction
						c.Evict(f.ID())
					case 1: // clobber a random frame (SEU injection)
						fi := rng.Intn(c.Fabric().Geometry().NumFrames())
						// Only clobber frames not owned by a resident
						// function — an owned-frame clobber is covered by
						// TestReloadAfterExternalClobber; here it would
						// legitimately trip the invariant until repaired.
						owned := false
						for _, res := range c.kernel.table {
							for _, of := range res.frames {
								if of == fi {
									owned = true
								}
							}
						}
						if !owned {
							_ = c.Fabric().ClearFrame(fi)
						}
					default: // execute
						in := make([]byte, f.BlockBytes*(rng.Intn(3)+1))
						for i := range in {
							in[i] = byte(rng.Uint64())
						}
						wasResident := c.Resident(f.ID())
						out, br, err := c.Execute(f.ID(), in)
						if err != nil {
							t.Fatalf("step %d exec %s: %v", step, f.Name(), err)
						}
						want, _ := f.Exec(padTo(in, int(f.InBus)))
						if !bytes.Equal(out, want) {
							t.Fatalf("step %d: %s computed wrong result", step, f.Name())
						}
						// Only a miss reads the ROM record table; a hit
						// needs the function already resident.
						hit := c.LastChainStages()[0].Hit
						if (br.Get(sim.PhaseROM) == 0) != hit {
							t.Fatalf("step %d: %s hit=%v with ROM phase %v", step, f.Name(), hit, br.Get(sim.PhaseROM))
						}
						if hit && !wasResident {
							t.Fatalf("step %d: %s hit without being resident", step, f.Name())
						}
					}
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				st := c.Stats()
				if st.Requests == 0 || st.Misses == 0 {
					t.Fatalf("degenerate run: %+v", st)
				}
			})
	}
}

// residentFramesOf peeks the kernel table (test helper, same package).
func residentFramesOf(c *Controller, fn uint16) []int {
	if res, ok := c.kernel.table[fn]; ok {
		return res.frames
	}
	return nil
}

func TestMiniOSRecoversFromClobberStorm(t *testing.T) {
	// Clobber every frame, then demand every function: the mini OS must
	// rebuild the fabric from ROM without help.
	c := newController(t, Config{Geometry: fpga.DefaultGeometry})
	fns := []*algos.Function{algos.CRC32(), algos.DES(), algos.SHA1()}
	for _, f := range fns {
		install(t, c, f, "rle")
		if _, _, err := c.Execute(f.ID(), make([]byte, f.BlockBytes)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < c.Fabric().Geometry().NumFrames(); i++ {
		_ = c.Fabric().ClearFrame(i)
	}
	for _, f := range fns {
		in := make([]byte, f.BlockBytes)
		in[0] = 7
		out, _, err := c.Execute(f.ID(), in)
		if err != nil {
			t.Fatalf("%s after storm: %v", f.Name(), err)
		}
		want, _ := f.Exec(in)
		if !bytes.Equal(out, want) {
			t.Fatalf("%s wrong after storm", f.Name())
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
