package mcu

// Configuration scrubbing: the defence partially reconfigurable systems
// deploy against single-event upsets. The scrubber walks every resident
// function, reads its frames back from configuration memory, compares
// them against the golden images reconstructed from ROM, and rewrites any
// frame that differs. Detection requires the full readback-and-compare —
// an SEU flips bits without telling anyone (see fpga.InjectSEU), so no
// bookkeeping shortcut exists; that is why scrub cost scales with
// resident footprint and why E14 sweeps the scrub interval.

import (
	"bytes"
	"fmt"

	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
	"agilefpga/internal/trace"
)

// ScrubReport summarises one scrub pass.
type ScrubReport struct {
	// FramesChecked counts resident frames read back and compared.
	FramesChecked int
	// FramesRepaired counts frames that differed and were rewritten.
	FramesRepaired int
	// Time is the virtual cost of the pass (readback + golden
	// reconstruction + repairs).
	Time sim.Time
}

// Scrub performs one scrubbing pass over all resident functions. Repairs
// re-activate the affected function, so instances stay valid.
func (c *Controller) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	var br sim.Breakdown
	for fn, res := range c.kernel.table {
		golden := c.goldenImages(fn, &br)
		var dirtyFrames []int
		var dirtyImages [][]byte
		var dirtyKeys []uint32
		for i, fi := range res.frames {
			cur, err := c.fab.ReadFrame(fi)
			if err != nil {
				return rep, err
			}
			// Readback: one byte per configuration-clock cycle.
			br.Add(sim.PhaseConfigure, c.cfgDom.Span(uint64(len(cur))))
			rep.FramesChecked++
			if !bytes.Equal(cur, golden.images[i]) {
				dirtyFrames = append(dirtyFrames, fi)
				dirtyImages = append(dirtyImages, golden.images[i])
				dirtyKeys = append(dirtyKeys, golden.keys[i])
			}
		}
		if len(dirtyFrames) == 0 {
			continue
		}
		portCycles, err := c.pushFrames(dirtyFrames, dirtyImages, dirtyKeys)
		if err != nil {
			return rep, fmt.Errorf("mcu: scrub repair: %w", err)
		}
		br.Add(sim.PhaseConfigure, c.cfgDom.Span(portCycles))
		rep.FramesRepaired += len(dirtyFrames)
		c.stats.SEURepairs += uint64(len(dirtyFrames))
		c.emit(trace.KindConfigure, fn, len(dirtyFrames), 0, "scrub-repair")

		// The repair bumped generations: re-activate to keep the
		// instance valid.
		if err := c.fab.Activate(&res.inst, res.frames); err != nil {
			return rep, fmt.Errorf("mcu: scrub re-activation of fn %d: %w", fn, err)
		}
	}
	rep.Time = br.Total()
	c.stats.ScrubTime += rep.Time
	c.stats.Phases.AddAll(br)
	if c.metrics != nil && rep.Time != 0 {
		c.metrics.Histogram("agile_scrub_seconds").Observe(rep.Time)
		c.metrics.Histogram("agile_phase_seconds",
			metrics.L("phase", sim.PhaseScrub.String()),
			metrics.L("fn", "all")).Observe(rep.Time)
	}
	return rep, nil
}

// goldenImages returns a function's load plan, whose images are the
// scrubber's reference copy, charging the ROM read and the decompression
// the card spends reconstructing them.
func (c *Controller) goldenImages(fn uint16, br *sim.Breakdown) *loadPlan {
	p := c.plans[fn]
	br.Add(sim.PhaseROM, c.mcuDom.Span(p.romCycles))
	br.Add(sim.PhaseDecompress, c.cfgDom.Span(uint64(float64(p.rawBytes)*p.cyclesPerByte)))
	return p
}

// FramesOf reports the frames a resident function occupies (nil if not
// resident) — used by the reliability experiment's omniscient harness.
func (c *Controller) FramesOf(fn uint16) []int {
	if res, ok := c.kernel.table[fn]; ok {
		return append([]int(nil), res.frames...)
	}
	return nil
}
