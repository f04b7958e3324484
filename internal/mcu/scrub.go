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
	"fmt"

	"agilefpga/internal/compress"
	"agilefpga/internal/memory"
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
		rec, _, err := c.rom.FindByID(fn)
		if err != nil {
			return rep, fmt.Errorf("mcu: scrub: resident fn %d has no ROM record: %w", fn, err)
		}
		golden, err := c.goldenImages(rec, &br)
		if err != nil {
			return rep, err
		}
		if len(golden) != len(res.frames) {
			return rep, fmt.Errorf("mcu: scrub: fn %d golden image holds %d frames, resident set %d",
				fn, len(golden), len(res.frames))
		}
		var dirtyFrames []int
		var dirtyImages [][]byte
		for i, fi := range res.frames {
			cur, err := c.fab.ReadFrame(fi)
			if err != nil {
				return rep, err
			}
			// Readback: one byte per configuration-clock cycle.
			br.Add(sim.PhaseConfigure, c.cfgDom.Advance(uint64(len(cur))))
			rep.FramesChecked++
			if !framesEqual(cur, golden[i]) {
				dirtyFrames = append(dirtyFrames, fi)
				dirtyImages = append(dirtyImages, golden[i])
			}
		}
		if len(dirtyFrames) == 0 {
			continue
		}
		portCycles, err := c.pushFrames(dirtyFrames, dirtyImages)
		if err != nil {
			return rep, fmt.Errorf("mcu: scrub repair: %w", err)
		}
		br.Add(sim.PhaseConfigure, c.cfgDom.Advance(portCycles))
		rep.FramesRepaired += len(dirtyFrames)
		c.stats.SEURepairs += uint64(len(dirtyFrames))
		c.emit(trace.KindConfigure, fn, len(dirtyFrames), 0, "scrub-repair")

		// The repair bumped generations: re-activate to keep the
		// instance valid.
		inst, err := c.fab.Activate(res.frames)
		if err != nil {
			return rep, fmt.Errorf("mcu: scrub re-activation of fn %d: %w", fn, err)
		}
		res.inst = inst
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

// goldenImages reconstructs a function's frame images from its ROM blob
// (the scrubber's reference copy), charging ROM and decompression cost.
func (c *Controller) goldenImages(rec memory.Record, br *sim.Breakdown) ([][]byte, error) {
	blob, err := c.rom.Blob(rec)
	if err != nil {
		return nil, err
	}
	br.Add(sim.PhaseROM, c.mcuDom.Advance(uint64((len(blob)+1)/2)))
	codec, err := compress.ByID(rec.CodecID, c.cfg.Geometry.FrameBytes())
	if err != nil {
		return nil, err
	}
	raw, err := codec.Decompress(blob)
	if err != nil {
		return nil, err
	}
	br.Add(sim.PhaseDecompress, c.cfgDom.Advance(uint64(float64(len(raw))*codec.CyclesPerByte())))
	fb := c.cfg.Geometry.FrameBytes()
	if len(raw)%fb != 0 {
		return nil, fmt.Errorf("mcu: scrub: golden image of %q not frame-aligned", rec.Name)
	}
	images := make([][]byte, 0, len(raw)/fb)
	for off := 0; off < len(raw); off += fb {
		images = append(images, raw[off:off+fb])
	}
	return images, nil
}

func framesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FramesOf reports the frames a resident function occupies (nil if not
// resident) — used by the reliability experiment's omniscient harness.
func (c *Controller) FramesOf(fn uint16) []int {
	if res, ok := c.kernel.table[fn]; ok {
		return append([]int(nil), res.frames...)
	}
	return nil
}
