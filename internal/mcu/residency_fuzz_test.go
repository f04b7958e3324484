package mcu

import (
	"bytes"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/fpga"
	"agilefpga/internal/sim"
)

// FuzzResidency drives the mini OS with a byte-decoded operation stream
// on a 24-frame device, so evictions happen, and checks after every
// step what a hit may assume: outputs match the algos reference, the
// Free Frame List and Frame Replacement Table stay consistent, a
// command's stage costs sum to its breakdown and to the card's
// accumulated time, the ROM phase is zero exactly when every stage
// hit, and a stage that hit was resident with a valid instance before
// the step.
//
// The first byte selects the feature set (bit 0 contiguous-only, 1
// difference reload, 2 prefetch, 4 decode cache; bit 3 is unused); every
// later pair of bytes is one step, an operation and its argument.
func FuzzResidency(f *testing.F) {
	// TestMiniOSRandomOperations' five runs, re-encoded as byte inputs,
	// then two with the decode cache on.
	for ci, flags := range []byte{0, 1, 2, 4, 2 | 4, 16, 2 | 4 | 16} {
		rng := sim.NewRNG(uint64(ci)*7919 + 17)
		in := []byte{flags}
		for range 300 {
			in = append(in, byte(rng.Uint64()), byte(rng.Uint64()))
		}
		f.Add(in)
	}
	f.Fuzz(runResidency)
}

// residencyFns is a mixed-footprint subset of the bank that fits the
// 24-frame device one or two at a time.
var residencyFns = []*algos.Function{
	algos.CRC32(), algos.GFMul(), algos.DES(), algos.FIR(), algos.AES128(), algos.FFT(),
}

// runResidency is FuzzResidency's body over one input.
func runResidency(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	flags := data[0]
	cfg := Config{
		Geometry:       fpga.Geometry{Rows: 32, Cols: 24},
		ContiguousOnly: flags&1 != 0,
		DiffReload:     flags&2 != 0,
		Prefetch:       flags&4 != 0,
	}
	if flags&16 != 0 {
		cfg.DecodeCacheBytes = 64 << 10
	}
	c := newController(t, cfg)
	for _, fn := range residencyFns {
		install(t, c, fn, "framediff")
	}
	steps := data[1:]
	if len(steps) > 2*400 {
		steps = steps[:2*400]
	}
	for step := 0; step+1 < len(steps); step += 2 {
		op, arg := steps[step]%8, int(steps[step+1])
		// Residency before the step: a stage may hit only on a
		// function resident now with a valid instance.
		ready := make(map[uint16]bool, len(residencyFns))
		for fn, res := range c.kernel.table {
			ready[fn] = res.inst.Valid()
		}
		before := c.stats.Phases.Total()
		var (
			out  []byte
			br   sim.Breakdown
			want []byte
			err  error
			ran  bool
		)
		switch op {
		case 0, 1, 2: // execute
			fn := residencyFns[arg%len(residencyFns)]
			in := stepInput(fn.BlockBytes*(arg/len(residencyFns)%3+1), step)
			out, br, err = c.Execute(fn.ID(), in)
			if err != nil {
				t.Fatalf("step %d: execute %s: %v", step/2, fn.Name(), err)
			}
			want, _ = fn.Exec(padTo(in, int(fn.InBus)))
			ran = true
		case 3: // two-stage chain of distinct functions
			f0 := residencyFns[arg%len(residencyFns)]
			f1 := residencyFns[(arg%len(residencyFns)+1+arg/len(residencyFns)%(len(residencyFns)-1))%len(residencyFns)]
			in := stepInput(f0.BlockBytes, step)
			out, br, _, err = c.ExecuteChain([]uint16{f0.ID(), f1.ID()}, in)
			mid, rerr := f0.Exec(padTo(in, int(f0.InBus)))
			if rerr == nil {
				want, rerr = f1.Exec(padTo(mid, int(f1.InBus)))
			}
			// A pair the device cannot hold at once, or whose
			// intermediate the second stage refuses, fails whole.
			ran = err == nil && rerr == nil
			if err == nil && rerr != nil {
				t.Fatalf("step %d: chain %s->%s succeeded where the reference fails: %v", step/2, f0.Name(), f1.Name(), rerr)
			}
		case 4: // host-initiated eviction
			c.Evict(residencyFns[arg%len(residencyFns)].ID())
		case 5: // frame clobber
			clobber(t, c, arg%cfg.Geometry.NumFrames())
		case 6:
			if _, _, err := c.Defrag(); err != nil {
				t.Fatalf("step %d: defrag: %v", step/2, err)
			}
		case 7:
			if _, err := c.Scrub(); err != nil {
				t.Fatalf("step %d: scrub: %v", step/2, err)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("step %d (op %d): %v", step/2, op, err)
		}
		if !ran {
			continue
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("step %d (op %d): output differs from the algos reference", step/2, op)
		}
		var sum sim.Breakdown
		allHit := true
		for _, st := range c.LastChainStages() {
			sum.AddAll(st.Cost)
			allHit = allHit && st.Hit
			if st.Hit && !ready[st.Fn] {
				t.Fatalf("step %d: fn %d hit without a valid resident instance before the step", step/2, st.Fn)
			}
		}
		if sum != br || br.Total() != c.stats.Phases.Total()-before {
			t.Fatalf("step %d: stage costs %v, breakdown %v, card time %v disagree",
				step/2, sum.Total(), br.Total(), c.stats.Phases.Total()-before)
		}
		if (br.Get(sim.PhaseROM) == 0) != allHit {
			t.Fatalf("step %d: every stage hit = %v with ROM phase %v", step/2, allHit, br.Get(sim.PhaseROM))
		}
	}
}

// stepInput is a deterministic input of n bytes for one fuzz step.
func stepInput(n, step int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = byte(i*31 + step*7 + 1)
	}
	return in
}

// clobber writes frame fi behind the mini OS's back. A free frame is
// cleared. A resident frame is rewritten through the configuration port
// with its own image: the bits stay right, so the bookkeeping invariants
// hold, but the write generation moves and the owner's instance is no
// longer valid, so its next call must reload rather than hit.
func clobber(t *testing.T, c *Controller, fi int) {
	t.Helper()
	for fn, res := range c.kernel.table {
		for i, owned := range res.frames {
			if owned != fi {
				continue
			}
			p := c.plans[fn]
			if _, err := c.pushFrames(res.frames[i:i+1], p.images[i:i+1], p.keys[i:i+1]); err != nil {
				t.Fatalf("rewrite frame %d of fn %d: %v", fi, fn, err)
			}
			return
		}
	}
	if err := c.Fabric().ClearFrame(fi); err != nil {
		t.Fatal(err)
	}
}
