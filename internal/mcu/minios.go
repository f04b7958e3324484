package mcu

import (
	"fmt"
	"slices"
	"sort"

	"agilefpga/internal/memory"
	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
	"agilefpga/internal/trace"
)

// This file is the mini OS proper: placement against the Free Frame List,
// eviction through the Frame Replacement Policy, and the configuration
// module that streams a compressed bitstream from ROM onto the fabric.

// row returns fn's Frame Replacement Table row, creating it the first
// time fn is loaded. Rows are never freed: an eviction takes the row out
// of the table, and the next load writes it afresh.
func (k *kernel) row(fn uint16) *resident {
	res := k.rows[fn]
	if res == nil {
		res = new(resident)
		k.rows[fn] = res
	}
	return res
}

// load brings the function of rec onto the fabric: it finds frames
// (evicting if necessary), streams and decompresses the bitstream window
// by window into the configuration port, and activates the function
// into its table row. The caller has made sure the function is not
// resident.
func (c *Controller) load(rec memory.Record, br *sim.Breakdown) (*resident, error) {
	c.noteFn(rec)
	demand := int(rec.FrameCount)
	if demand > c.cfg.Geometry.NumFrames() {
		return nil, fmt.Errorf("%w: %q needs %d frames, device has %d",
			ErrTooLarge, rec.Name, demand, c.cfg.Geometry.NumFrames())
	}

	res := c.kernel.row(rec.FnID)
	res.rec = rec
	// Difference-based fast path: the function's previous frames are
	// still free and provably untouched, so its bits are already in the
	// fabric — skip the whole ROM/decompress/configure pipeline.
	if c.cfg.DiffReload && c.reviveStale(res, br) {
		return res, nil
	}

	frames, err := c.place(demand, res.frames[:0], br)
	if err != nil {
		return nil, err
	}
	res.frames = frames

	if err := c.configure(rec, frames, br); err != nil {
		// A failed configuration leaves the frames unusable until
		// cleared; scrub them back onto the free list.
		for _, fi := range frames {
			_ = c.fab.ClearFrame(fi)
		}
		c.returnFrames(frames)
		return nil, err
	}

	if err := c.fab.Activate(&res.inst, frames); err != nil {
		for _, fi := range frames {
			_ = c.fab.ClearFrame(fi)
		}
		c.returnFrames(frames)
		return nil, fmt.Errorf("mcu: activation after load: %w", err)
	}

	res.lastAccess = c.kernel.now
	c.kernel.table[rec.FnID] = res
	c.kernel.policy.OnInstall(rec.FnID, c.kernel.now)
	if c.metrics != nil {
		c.metrics.Counter("agile_frames_loaded_total",
			metrics.L("fn", c.fnLabel(rec.FnID))).Add(uint64(len(frames)))
	}
	return res, nil
}

// reviveStale checks the difference-flow bookkeeping: if every frame the
// function occupied at its lazy eviction is still on the free list with
// an unchanged write generation, the frames are removed from the free
// list and the function re-activated in place, into its row res. The
// cost is pure mini-OS bookkeeping — the saving the difference-based
// flow exists for. Nothing is allocated: the row keeps the frame list
// and generations, and the free list shrinks in place.
func (c *Controller) reviveStale(res *resident, br *sim.Breakdown) bool {
	k := &c.kernel
	if !res.stale {
		return false
	}
	res.stale = false // single-use: either revived now or gone
	for i, fi := range res.frames {
		if _, free := slices.BinarySearch(k.freeList, fi); !free || c.fab.Generation(fi) != res.gens[i] {
			return false
		}
	}
	if err := c.fab.Activate(&res.inst, res.frames); err != nil {
		return false
	}
	// Mark the revived frames on the sorted free list, then close the
	// gaps.
	for _, fi := range res.frames {
		i, _ := slices.BinarySearch(k.freeList, fi)
		k.freeList[i] = -1
	}
	k.freeList = slices.DeleteFunc(k.freeList, func(fi int) bool { return fi < 0 })

	fn := res.rec.FnID
	res.lastAccess = k.now
	k.table[fn] = res
	k.policy.OnInstall(fn, k.now)
	c.stats.FramesSkipped += uint64(len(res.frames))
	br.Add(sim.PhaseOverhead, c.mcuDom.Span(uint64(8+2*len(res.frames))))
	c.emit(trace.KindRevive, fn, len(res.frames), 0, "")
	return true
}

// place appends `demand` frames from the Free Frame List to dst,
// evicting algorithms chosen by the Frame Replacement Policy until the
// demand fits (paper §2.5). Placement prefers a contiguous run; when none
// exists and scatter is allowed, any free frames serve.
func (c *Controller) place(demand int, dst []int, br *sim.Breakdown) ([]int, error) {
	for {
		if frames, contiguous, ok := c.takeFrames(demand, dst); ok {
			if contiguous {
				c.stats.ContigPlacements++
			} else {
				c.stats.ScatterPlacements++
			}
			// Free-list bookkeeping: a handful of MCU cycles per frame.
			br.Add(sim.PhaseOverhead, c.mcuDom.Span(uint64(4+2*demand)))
			c.emit(trace.KindPlace, 0, demand, 0, "")
			return frames, nil
		}
		victim, err := c.kernel.policy.Victim()
		if err != nil {
			return nil, fmt.Errorf("%w: need %d frames, %d free and nothing to evict (%v)",
				ErrNoCapacity, demand, len(c.kernel.freeList), err)
		}
		if c.kernel.pinned[victim] {
			// A chain stage must not displace another stage of the same
			// chain. Hide the pinned function from the policy so Victim()
			// keeps making progress (ExecuteChain re-registers it when the
			// chain ends) and ask again. When only pinned functions remain,
			// Victim() runs dry and the loop errors out above: the chain
			// simply does not fit the device.
			c.kernel.policy.OnEvict(victim)
			c.kernel.hidden = append(c.kernel.hidden, victim)
			continue
		}
		c.evict(victim, br)
	}
}

// takeFrames moves a frame set from the free list to dst: a contiguous
// run if one exists, else (scatter allowed) the lowest free frames. The
// free list closes the gap in place.
func (c *Controller) takeFrames(demand int, dst []int) (frames []int, contiguous, ok bool) {
	fl := c.kernel.freeList
	if demand <= 0 || len(fl) < demand {
		return nil, false, false
	}
	// Contiguous first-fit over the sorted free list.
	start := 0
	for i := 0; i < len(fl); i++ {
		if i > 0 && fl[i] != fl[i-1]+1 {
			start = i
		}
		if i-start+1 == demand {
			frames = append(dst, fl[start:i+1]...)
			c.kernel.freeList = slices.Delete(fl, start, i+1)
			return frames, true, true
		}
	}
	if c.cfg.ContiguousOnly {
		return nil, false, false
	}
	frames = append(dst, fl[:demand]...)
	c.kernel.freeList = slices.Delete(fl, 0, demand)
	return frames, false, true
}

// evict removes fn from the fabric, clearing its frames and returning
// them to the Free Frame List.
func (c *Controller) evict(fn uint16, br *sim.Breakdown) {
	res, ok := c.kernel.table[fn]
	if !ok {
		return
	}
	if c.cfg.DiffReload {
		// Lazy eviction: leave the bits in place and remember their
		// write generations so a returning load can prove them intact.
		// The row keeps its frame list until that load.
		res.gens = res.gens[:0]
		for _, fi := range res.frames {
			res.gens = append(res.gens, c.fab.Generation(fi))
		}
		res.stale = true
	} else {
		// Scrub the logic space.
		for _, fi := range res.frames {
			_ = c.fab.ClearFrame(fi)
		}
	}
	c.returnFrames(res.frames)
	delete(c.kernel.table, fn)
	c.kernel.policy.OnEvict(fn)
	c.stats.Evictions++
	c.emit(trace.KindEvict, fn, len(res.frames), 0, "")
	if c.metrics != nil {
		c.metrics.Counter("agile_evictions_total", metrics.L("fn", c.fnLabel(fn))).Inc()
	}
	// Table update + frame scrubbing cost.
	br.Add(sim.PhaseOverhead, c.mcuDom.Span(uint64(8+2*len(res.frames))))
}

// returnFrames merges frames back into the sorted free list, within the
// capacity it booted with.
func (c *Controller) returnFrames(frames []int) {
	c.kernel.freeList = append(c.kernel.freeList, frames...)
	slices.Sort(c.kernel.freeList)
}

// Defrag compacts the fabric: every resident function is reloaded from
// ROM into the lowest free frames, leaving the free space as one
// contiguous run. It is a stop-the-world operation costing a full
// reconfiguration of everything resident — worth it for a
// contiguous-only placer drowning in fragmentation, pointless when
// scatter placement is allowed (E4 quantifies both). Replacement-policy
// recency is preserved by reloading in least-recently-used-first order,
// so the policy sees the same relative ages it saw before.
func (c *Controller) Defrag() (moved int, cost sim.Time, err error) {
	var br sim.Breakdown
	// Snapshot residents ordered by last access (oldest first).
	type entry struct {
		fn   uint16
		last uint64
	}
	var order []entry
	for fn, res := range c.kernel.table {
		order = append(order, entry{fn, res.lastAccess})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].last != order[j].last {
			return order[i].last < order[j].last
		}
		return order[i].fn < order[j].fn
	})
	for _, e := range order {
		c.evict(e.fn, &br)
	}
	// Compaction must actually move things: drop any difference-flow
	// stale records so the reloads cannot revive in their old positions.
	for _, res := range c.kernel.rows {
		res.stale = false
	}
	for _, e := range order {
		if _, lerr := c.load(c.kernel.rows[e.fn].rec, &br); lerr != nil {
			return moved, br.Total(), fmt.Errorf("mcu: defrag reload of fn %d: %w", e.fn, lerr)
		}
		moved++
	}
	c.stats.Defrags++
	c.stats.Phases.AddAll(br)
	return moved, br.Total(), nil
}

// configure is the configuration module (paper §2.3): it reads the
// compressed bitstream from ROM, decompresses it window by window, and
// feeds frame images to the configuration port wrapped in FAR/FDRI
// packets targeting the placed frames.
//
// The ROM stores position-independent frame images (compressed), so the
// same blob can be relocated to whatever frames the placer found — the
// relocation trick that makes run-time placement possible at all.
//
// The ROM read and the decompression are charged from the record's load
// plan, which holds what they produce: the images and the window marks.
// The port write is executed — its cycles depend on the placement.
func (c *Controller) configure(rec memory.Record, frames []int, br *sim.Breakdown) error {
	p := c.plans[rec.FnID]
	if p == nil {
		return fmt.Errorf("mcu: %q has no load plan", rec.Name)
	}
	// Decoded-frame cache: the images for this exact record serial were
	// decoded before and still sit in card RAM, so the ROM read and the
	// window-by-window decompression vanish. The frames are read back from
	// RAM (PhaseCache) and pushed through the port as usual — the fabric
	// contents are byte-identical to a full decode.
	key := makeDCKey(rec.FnID, rec.Serial)
	cached := c.dcache != nil && c.dcache.get(key)
	if !cached {
		c.stats.CompConfigBytes += uint64(rec.CompSize)
		if c.dcache != nil {
			c.dcache.put(key, p.rawBytes)
		}
	}
	portCycles, err := c.pushFrames(frames, p.images, p.keys)
	if err != nil {
		return err
	}
	raw := p.rawBytes

	overhead, detail := uint64(len(p.wins))*8, p.codec
	if cached {
		overhead, detail = uint64(4+2*len(frames)), "decode-cache"
		c.stats.DecompCacheHits++
		c.stats.DecompCacheBytes += uint64(raw)
		if c.metrics != nil {
			c.metrics.Counter("agile_decode_cache_hits_total",
				metrics.L("fn", c.fnLabel(rec.FnID))).Inc()
		}
	}
	// Timing of the configuration module (DESIGN §12): one pipeline of
	// the stages the load runs, each fed per-unit costs split
	// cumulatively from its stage total, so the costs sum exactly to the
	// totals and the critical path obeys the max-of-stages recurrence.
	var pipe sim.Pipeline
	port := 2 // the port's stage: charged its busy time, the rest the fill
	if cached {
		// Two stages: while the port clocks in frame N, the next image is
		// read back from RAM.
		pipe = sim.NewPipeline(sim.PhaseCache, sim.PhaseConfigure)
		port = 1
		fb := c.cfg.Geometry.FrameBytes()
		var prevRAM, prevPort uint64
		for i := 1; i <= len(frames); i++ {
			ramCum := memory.ReadCycles(i * fb)
			portCum := portCycles * uint64(i) / uint64(len(frames))
			if i == len(frames) {
				ramCum = memory.ReadCycles(raw)
				portCum = portCycles
			}
			pipe.Feed(c.mcuDom.Span(ramCum-prevRAM), c.cfgDom.Span(portCum-prevPort))
			prevRAM, prevPort = ramCum, portCum
		}
	} else {
		// Three stages: while the port clocks in window N, the
		// decompressor produces N+1 and the ROM streams N+2. ROM costs
		// split by bytes consumed, decompress and port by bytes produced.
		// Attribution: pipeline fill to PhaseROM and PhaseDecompress, port
		// busy time to PhaseConfigure, bubbles to PhasePipeStall.
		pipe = sim.NewPipeline(sim.PhaseROM, sim.PhaseDecompress, sim.PhaseConfigure)
		var prevRom, prevDec, prevPort uint64
		for i, w := range p.wins {
			romCum := memory.ReadCycles(w.consumed)
			decCum := uint64(float64(w.out) * p.cyclesPerByte)
			portCum := portCycles * uint64(w.out) / uint64(raw)
			if i == len(p.wins)-1 {
				// The last window closes the books: whatever the decoder
				// under-reported (bit reservoirs, buffered runs) lands here.
				romCum, decCum, portCum = p.romCycles, p.decompCycles, portCycles
			}
			pipe.Feed(c.mcuDom.Span(romCum-prevRom), c.cfgDom.Span(decCum-prevDec), c.cfgDom.Span(portCum-prevPort))
			prevRom, prevDec, prevPort = romCum, decCum, portCum
		}
	}
	c.notePipeline(rec.FnID, &pipe, pipe.Attribute(br, port))
	br.Add(sim.PhaseOverhead, c.mcuDom.Span(overhead))

	c.stats.FramesLoaded += uint64(len(frames))
	c.stats.RawConfigBytes += uint64(raw)
	c.emit(trace.KindConfigure, rec.FnID, len(frames), raw, detail)
	return nil
}

// notePipeline folds one pipelined load into the stats and telemetry:
// windows fed, critical-path bubbles, overlap savings, and the peak
// number of windows in flight. Observation is passive — every value is
// computed before any metrics call.
func (c *Controller) notePipeline(fn uint16, pipe *sim.Pipeline, stall sim.Time) {
	saved := pipe.Saved()
	c.stats.PipelinedLoads++
	c.stats.PipeWindows += uint64(pipe.Items())
	c.stats.PipeStallTime += stall
	c.stats.PipeOverlapSaved += saved
	if c.metrics == nil {
		return
	}
	name := c.fnLabel(fn)
	c.metrics.Counter("agile_pipe_windows_total", metrics.L("fn", name)).Add(uint64(pipe.Items()))
	c.metrics.Counter("agile_pipe_stall_ps_total", metrics.L("fn", name)).Add(uint64(stall))
	c.metrics.Counter("agile_pipe_overlap_saved_ps_total", metrics.L("fn", name)).Add(uint64(saved))
	c.metrics.Gauge("agile_pipe_windows_in_flight_peak", metrics.L("fn", name)).Set(int64(pipe.PeakInFlight()))
}

// pushFrames wraps frame images in configuration packets and streams
// them through the port, returning the port cycles consumed. keys are the
// images' CRC keys from their load plan. A write that faults leaves its
// cycles in the port; the next push's Reset drops them.
func (c *Controller) pushFrames(frames []int, images [][]byte, keys []uint32) (uint64, error) {
	c.asm.Reset()
	stream, err := c.asm.AppendAssemble(c.cfg.Geometry, c.fab.IDCode(), frames, images, keys)
	if err != nil {
		return 0, err
	}
	port := c.fab.Port()
	port.Reset()
	if _, err := port.Write(stream); err != nil {
		return 0, fmt.Errorf("mcu: configuration port: %w", err)
	}
	return port.TakeCycles(), nil
}

// CheckInvariants verifies the mini-OS bookkeeping: the Free Frame List
// and the Frame Replacement Table partition the frame set, no two
// algorithms share a frame, and every resident frame carries the right
// signature. Tests and failure-injection call it after every operation.
func (c *Controller) CheckInvariants() error {
	seen := make(map[int]string)
	for _, fi := range c.kernel.freeList {
		if fi < 0 || fi >= c.cfg.Geometry.NumFrames() {
			return fmt.Errorf("mcu: free list holds bogus frame %d", fi)
		}
		if owner, dup := seen[fi]; dup {
			return fmt.Errorf("mcu: frame %d on free list twice (%s)", fi, owner)
		}
		seen[fi] = "free"
	}
	for fn, res := range c.kernel.table {
		for _, fi := range res.frames {
			if owner, dup := seen[fi]; dup {
				return fmt.Errorf("mcu: frame %d owned by fn %d and %s", fi, fn, owner)
			}
			seen[fi] = fmt.Sprintf("fn %d", fn)
			sig, ok := c.fab.FrameSignature(fi)
			if !ok {
				return fmt.Errorf("mcu: resident fn %d frame %d has no valid signature", fn, fi)
			}
			if sig.FnID != fn {
				return fmt.Errorf("mcu: frame %d signed by fn %d but owned by fn %d", fi, sig.FnID, fn)
			}
		}
	}
	if len(seen) != c.cfg.Geometry.NumFrames() {
		return fmt.Errorf("mcu: %d frames accounted for, device has %d", len(seen), c.cfg.Geometry.NumFrames())
	}
	return nil
}

// PolicyName reports the active replacement policy.
func (c *Controller) PolicyName() string { return c.kernel.policy.Name() }
