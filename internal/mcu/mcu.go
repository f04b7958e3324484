// Package mcu implements the PCI-based microcontroller and its mini OS —
// the paper's §2.3 and §2.5 and the heart of the co-processor. The
// controller owns the ROM and local RAM, drives the FPGA through three
// modules (configuration, data input, output collection), and runs the
// mini OS that keeps the Free Frame List and the Frame Replacement Table
// and applies the Frame Replacement Policy when the fabric overflows.
//
// The controller is a PCI target: BAR0 is its command mailbox, BAR1 a
// window onto local RAM. The host writes inputs into BAR1, fires a
// command through BAR0, and reads results back from BAR1 — the exact
// sequence of the paper's Figure 1 card.
package mcu

import (
	"errors"
	"fmt"

	"agilefpga/internal/bitstream"
	"agilefpga/internal/fpga"
	"agilefpga/internal/memory"
	"agilefpga/internal/metrics"
	"agilefpga/internal/replace"
	"agilefpga/internal/sim"
	"agilefpga/internal/trace"
)

// Clock frequencies of the card's domains.
const (
	// MCUHz is the microcontroller clock.
	MCUHz = 50_000_000
	// CfgHz is the configuration module / port clock.
	CfgHz = 50_000_000
	// FabricHz is the FPGA user-logic clock.
	FabricHz = 100_000_000
)

// Config is the card's build options, declared once: core.Config is an
// alias of it, and the public agilefpga.Config converts into it in one
// place. Zero values select defaults; New applies every one of them.
type Config struct {
	// Geometry sizes the fabric. Default: fpga.DefaultGeometry.
	Geometry fpga.Geometry
	ROMBytes int
	RAMBytes int
	// ROMImage, when non-nil, boots the card from a pre-burned ROM image
	// (see memory.LoadROM); ROMBytes is then ignored. Every record is
	// decoded once at boot, and a blob that does not decode to its
	// record's frames fails New.
	ROMImage []byte
	// WindowBytes is the configuration module's decompression window
	// (paper §2.3: "window by window"). Default DefaultWindowBytes.
	WindowBytes int
	// Codec names the bitstream compression the host driver installs
	// functions with (see compress.Names). Default DefaultCodec. The card
	// itself decodes whatever codec each ROM record names.
	Codec string
	// Policy is the frame replacement policy. Nil selects the paper's
	// LRU. A policy holds one card's state: cards built from one Config
	// each need their own (see replace.Policy.Fresh).
	Policy replace.Policy
	// ContiguousOnly forbids non-contiguous frame placement, which §2.5
	// otherwise allows: placement is then strictly contiguous first-fit.
	ContiguousOnly bool
	// DiffReload enables the difference-based reconfiguration flow in the
	// spirit of XAPP290 (which the paper cites): eviction leaves frame
	// contents in place and records their write generations; when the
	// same function returns and its old frames are still free and
	// untouched (generation-verified — no readback, which would cost as
	// much as rewriting), the load skips the ROM/decompress/port path
	// entirely and just re-activates the bits already in the fabric.
	DiffReload bool
	// Prefetch enables configuration prefetching: after each request the
	// mini OS predicts the next function (first-order Markov on the
	// request stream) and, if absent, loads it during host idle time so
	// the next call hits. The prefetch may evict via the replacement
	// policy; its cost is accounted separately, not on any request.
	Prefetch bool
	// DecodeCacheBytes sets aside a byte-bounded LRU cache of decoded
	// frame images keyed by record serial. A reload whose images are
	// cached skips the window-by-window decompression entirely
	// (PhaseDecompress = 0); the frames are read back from RAM
	// (PhaseCache) and pushed through the port as usual. 0 disables.
	DecodeCacheBytes int
	// Metrics, when non-nil, receives per-phase latency histograms and
	// behaviour counters. Observation is passive: it never advances a
	// clock domain, so enabling metrics changes no virtual-time result.
	Metrics *metrics.Registry
}

// Default sizing: a 512 KiB bitstream ROM and 64 KiB of staging RAM, on
// the order of the paper's Stratix development board.
const (
	DefaultROMBytes    = 512 * 1024
	DefaultRAMBytes    = 64 * 1024
	DefaultWindowBytes = 256
)

// DefaultCodec is the codec a card installs functions with when
// Config.Codec is empty. Its decoder emits one byte per configuration
// clock, the port's own rate, so a pipelined cold load never waits on
// decompression (DESIGN §12); framediff, at 1.25 cycles per byte, would
// set the pace of every load instead.
const DefaultCodec = "lz77"

// Controller is the microcontroller. It implements pci.Device.
type Controller struct {
	cfg Config

	fab *fpga.Fabric
	rom *memory.ROM
	ram *memory.RAM

	mcuDom *sim.Domain
	cfgDom *sim.Domain
	fabDom *sim.Domain

	kernel kernel

	// Mailbox registers (BAR0).
	regs mailbox

	lastBreakdown sim.Breakdown
	// lastChain holds the per-stage attribution of the most recent
	// execute command (one stage for CmdExec), for the host to collect
	// after the mailbox reports success. chain backs it, and chainRows
	// holds a chain's Frame Replacement Table rows between its two
	// passes, so no execute command allocates here.
	lastChain []ChainStage
	chain     [MaxChainStages]ChainStage
	chainRows [MaxChainStages]*resident

	stats Stats

	// dcache, when non-nil, models the decoded-frame cache in card RAM.
	dcache *decodeCache

	// plans holds every ROM record decoded once, by function id (the ROM
	// refuses a second record for an id).
	plans map[uint16]*loadPlan
	// asm assembles the port stream, keeping its buffers across loads.
	asm bitstream.Builder

	// traceLog, when set, receives structured events (nil = disabled).
	traceLog *trace.Log
	// card is the identity stamped onto trace events — 0 for a
	// single-card system, the card index inside a cluster.
	card int

	// metrics, when set, receives histograms and counters (nil = off).
	metrics *metrics.Registry
	// fnNames caches fn id → record name for metric labels, filled as
	// records are seen (bounded by the ROM's record table).
	fnNames map[uint16]string

	// reqTraceID/reqSpanID, set for the duration of one traced request
	// (core.Run holds the card lock around it), stamp emitted
	// card-log events so per-phase records attach to the owning
	// request's distributed span tree. Zero = untraced.
	reqTraceID uint64
	reqSpanID  uint64
}

// SetTrace attaches an event log; pass nil to disable tracing.
func (c *Controller) SetTrace(l *trace.Log) { c.traceLog = l }

// SetCard sets the card identity stamped onto trace events (a cluster
// assigns each card its index; single-card systems keep 0).
func (c *Controller) SetCard(card int) { c.card = card }

// SetRequestTrace tags every event emitted until the next call with
// the serving request's distributed-trace identity (zero ids clear the
// tag). Callers must hold the card's serialization (core.CoProcessor's
// per-card lock) across set → execute → clear, which is what core.Run
// does.
func (c *Controller) SetRequestTrace(traceID, spanID uint64) {
	c.reqTraceID, c.reqSpanID = traceID, spanID
}

// emit records a trace event stamped with accumulated card time.
func (c *Controller) emit(kind trace.Kind, fn uint16, frames, bytes int, detail string) {
	if c.traceLog == nil {
		return
	}
	c.traceLog.Record(trace.Event{
		TimePS:  uint64(c.stats.Phases.Total() + c.stats.PrefetchTime),
		Kind:    kind,
		Fn:      fn,
		Frames:  frames,
		Bytes:   bytes,
		Detail:  detail,
		Card:    c.card,
		TraceID: c.reqTraceID,
		SpanID:  c.reqSpanID,
	})
}

// emitSpans records one span event per non-zero phase of a finished
// request, laid end to end from base in pipeline order — the data the
// Chrome trace exporter renders as a cards × phases timeline.
func (c *Controller) emitSpans(fn uint16, base sim.Time, br sim.Breakdown) {
	if c.traceLog == nil {
		return
	}
	off := base
	for p := 0; p < sim.NumPhases; p++ {
		t := br.Get(sim.Phase(p))
		if t == 0 {
			continue
		}
		c.traceLog.Record(trace.Event{
			TimePS:  uint64(off),
			Kind:    trace.KindSpan,
			Fn:      fn,
			Detail:  sim.Phase(p).String(),
			DurPS:   uint64(t),
			Card:    c.card,
			TraceID: c.reqTraceID,
			SpanID:  c.reqSpanID,
		})
		off += t
	}
}

// noteFn caches a record's name for metric labels.
func (c *Controller) noteFn(rec memory.Record) {
	if _, ok := c.fnNames[rec.FnID]; !ok {
		c.fnNames[rec.FnID] = rec.Name
	}
}

// fnLabel resolves a function id to its metric label.
func (c *Controller) fnLabel(fn uint16) string {
	if name, ok := c.fnNames[fn]; ok {
		return name
	}
	return fmt.Sprintf("fn%d", fn)
}

// observeRequest records one finished request into the registry: a
// latency histogram per non-zero phase plus the request counter by
// result. All card-side phases are covered; the host adds PhasePCI in
// core, observed there.
func (c *Controller) observeRequest(fn uint16, br sim.Breakdown, hit bool, reqErr error) {
	if c.metrics == nil {
		return
	}
	name := c.fnLabel(fn)
	for p := 0; p < sim.NumPhases; p++ {
		if t := br.Get(sim.Phase(p)); t != 0 {
			c.metrics.Histogram("agile_phase_seconds",
				metrics.L("phase", sim.Phase(p).String()), metrics.L("fn", name)).Observe(t)
		}
	}
	result := "miss"
	switch {
	case reqErr != nil:
		result = "error"
		c.metrics.Counter("agile_errors_total", metrics.L("fn", name)).Inc()
	case hit:
		result = "hit"
	}
	c.metrics.Counter("agile_requests_total",
		metrics.L("fn", name), metrics.L("result", result)).Inc()
}

// resident is one Frame Replacement Table row: the frames an algorithm
// occupies, its activated instance and the timestamp of its last access
// (paper §2.5). Each function has one row for the card's lifetime: a
// load rewrites it in place, reusing its frame list and its instance.
type resident struct {
	frames     []int
	inst       fpga.Instance
	lastAccess uint64
	// rec is the function's ROM record, written by load. The ROM holds
	// one record per id for the card's lifetime, so a row never holds a
	// stale one.
	rec memory.Record

	// Difference-based flow: a lazy eviction leaves frames and record
	// as they were and records the frames' write generations, so the
	// next load of the function can prove its bits intact. stale is
	// set from that eviction until the next load or Defrag.
	stale bool
	gens  []uint64
}

// kernel is the mini-OS state.
type kernel struct {
	// freeList is the Free Frame List, ascending. It is compacted in
	// place and never outgrows the capacity of NumFrames it boots with.
	freeList []int
	// table holds the rows of the functions resident now; rows holds
	// every function's row, resident or not.
	table  map[uint16]*resident
	rows   map[uint16]*resident
	policy replace.Policy
	now    uint64 // logical clock, bumped per request

	// Prefetcher state: first-order Markov successor table and the set
	// of functions brought in speculatively and not yet used.
	succ       map[uint16]uint16
	lastFn     uint16
	haveLast   bool
	prefetched map[uint16]bool

	// Chain pinning: functions that must stay resident for the duration
	// of the running chain (ExecuteChain sets and clears them), and the
	// pinned victims place() hid from the policy so Victim() keeps
	// making progress; the chain re-registers them on the way out.
	pinned map[uint16]bool
	hidden []uint16
}

// Stats aggregates observable behaviour for the experiments.
type Stats struct {
	Requests     uint64
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	FramesLoaded uint64
	// RawConfigBytes counts decompressed configuration bytes pushed at
	// the port; CompConfigBytes counts compressed bytes read from ROM.
	RawConfigBytes  uint64
	CompConfigBytes uint64
	// Placements by kind.
	ContigPlacements  uint64
	ScatterPlacements uint64
	// Difference-based flow: frames whose readback matched the image and
	// were not rewritten.
	FramesSkipped uint64
	// Prefetcher: speculative loads issued, requests that hit because of
	// one, and the off-request time the prefetches consumed.
	Prefetches   uint64
	PrefetchHits uint64
	PrefetchTime sim.Time
	// Decoded-frame cache: loads served from cached images (skipping
	// decompression) and the decoded bytes those hits reused.
	DecompCacheHits  uint64
	DecompCacheBytes uint64
	// Scrubber: frames repaired after SEU detection and the total time
	// spent in scrub passes.
	SEURepairs uint64
	ScrubTime  sim.Time
	// Pipelined configuration path: loads costed through the pipeline
	// model, windows fed through it, bubble time exposed on the critical
	// path (PhasePipeStall), and the virtual time the overlap hid
	// relative to running the same stage costs back to back.
	PipelinedLoads   uint64
	PipeWindows      uint64
	PipeStallTime    sim.Time
	PipeOverlapSaved sim.Time
	// On-fabric chains: chained runs completed, their total stage count,
	// and the intermediate bytes handed between stages through local RAM
	// instead of crossing PCI (each would otherwise have crossed twice).
	ChainRuns         uint64
	ChainStages       uint64
	ChainHandoffBytes uint64
	// Defrags counts stop-the-world compaction passes.
	Defrags uint64
	// Failures.
	Errors uint64
	// Phase time totals across all requests.
	Phases sim.Breakdown
}

// Add accumulates o into s, field by field: a cluster's total is the sum
// of its cards'.
func (s *Stats) Add(o Stats) {
	s.Requests += o.Requests
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.FramesLoaded += o.FramesLoaded
	s.RawConfigBytes += o.RawConfigBytes
	s.CompConfigBytes += o.CompConfigBytes
	s.ContigPlacements += o.ContigPlacements
	s.ScatterPlacements += o.ScatterPlacements
	s.FramesSkipped += o.FramesSkipped
	s.Prefetches += o.Prefetches
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchTime += o.PrefetchTime
	s.DecompCacheHits += o.DecompCacheHits
	s.DecompCacheBytes += o.DecompCacheBytes
	s.SEURepairs += o.SEURepairs
	s.ScrubTime += o.ScrubTime
	s.PipelinedLoads += o.PipelinedLoads
	s.PipeWindows += o.PipeWindows
	s.PipeStallTime += o.PipeStallTime
	s.PipeOverlapSaved += o.PipeOverlapSaved
	s.ChainRuns += o.ChainRuns
	s.ChainStages += o.ChainStages
	s.ChainHandoffBytes += o.ChainHandoffBytes
	s.Defrags += o.Defrags
	s.Errors += o.Errors
	s.Phases.AddAll(o.Phases)
}

// HitRate is the share of requests served without reconfiguration (0
// before the first request).
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// Controller errors.
var (
	ErrTooLarge   = errors.New("mcu: function does not fit the device")
	ErrNoCapacity = errors.New("mcu: cannot free enough frames")
	ErrRAMWindow  = errors.New("mcu: I/O exceeds the RAM staging windows")
)

// New builds a controller, its fabric, ROM and RAM.
func New(cfg Config, reg *fpga.Registry) (*Controller, error) {
	if cfg.Geometry == (fpga.Geometry{}) {
		cfg.Geometry = fpga.DefaultGeometry
	}
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.ROMBytes == 0 {
		cfg.ROMBytes = DefaultROMBytes
	}
	if cfg.RAMBytes == 0 {
		cfg.RAMBytes = DefaultRAMBytes
	}
	if cfg.WindowBytes == 0 {
		cfg.WindowBytes = DefaultWindowBytes
	}
	if cfg.WindowBytes < 4 {
		return nil, fmt.Errorf("mcu: window of %d bytes is below one port word", cfg.WindowBytes)
	}
	if cfg.Codec == "" {
		cfg.Codec = DefaultCodec
	}
	if cfg.Policy == nil {
		cfg.Policy = replace.NewLRU()
	}
	var rom *memory.ROM
	var err error
	if cfg.ROMImage != nil {
		rom, err = memory.LoadROM(cfg.ROMImage)
	} else {
		rom, err = memory.NewROM(cfg.ROMBytes)
	}
	if err != nil {
		return nil, err
	}
	ram, err := memory.NewRAM(cfg.RAMBytes)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:     cfg,
		fab:     fpga.NewFabric(cfg.Geometry, reg),
		rom:     rom,
		ram:     ram,
		mcuDom:  sim.NewDomain("mcu", MCUHz),
		cfgDom:  sim.NewDomain("cfg", CfgHz),
		fabDom:  sim.NewDomain("fabric", FabricHz),
		metrics: cfg.Metrics,
		fnNames: make(map[uint16]string),
		plans:   make(map[uint16]*loadPlan),
	}
	// A booted ROM's records enter the card here: decode each once.
	for _, rec := range rom.Records() {
		blob, err := rom.Blob(rec)
		if err != nil {
			return nil, err
		}
		if c.plans[rec.FnID], err = c.newPlan(rec, blob); err != nil {
			return nil, err
		}
	}
	if cfg.DecodeCacheBytes > 0 {
		c.dcache = newDecodeCache(cfg.DecodeCacheBytes)
	}
	c.kernel = kernel{
		freeList:   make([]int, 0, cfg.Geometry.NumFrames()),
		table:      make(map[uint16]*resident),
		rows:       make(map[uint16]*resident),
		policy:     cfg.Policy,
		succ:       make(map[uint16]uint16),
		prefetched: make(map[uint16]bool),
		pinned:     make(map[uint16]bool),
	}
	for i := 0; i < cfg.Geometry.NumFrames(); i++ {
		c.kernel.freeList = append(c.kernel.freeList, i)
	}
	return c, nil
}

// Config reports the options the card was built with, defaults applied.
func (c *Controller) Config() Config { return c.cfg }

// Fabric exposes the FPGA (read-only uses: readback, utilization).
func (c *Controller) Fabric() *fpga.Fabric { return c.fab }

// ROM exposes the bitstream store.
func (c *Controller) ROM() *memory.ROM { return c.rom }

// Stats returns an unsynchronized copy of the accumulated statistics.
// The Controller itself performs no locking: concurrent callers must
// hold the owning card's lock — core.CoProcessor serialises every entry
// point (including its Stats) behind one mutex per card, which is the
// only reason cluster-wide aggregation is race-free. Calling this
// directly while another goroutine drives Execute through the same
// controller is a data race (asserted by TestStatsRequiresCardLock in
// internal/core).
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics (not the mini-OS state).
func (c *Controller) ResetStats() { c.stats = Stats{} }

// Resident reports whether fn is currently configured on the fabric.
func (c *Controller) Resident(fn uint16) bool {
	_, ok := c.kernel.table[fn]
	return ok
}

// LastBreakdown reports the per-phase latency of the most recent command.
func (c *Controller) LastBreakdown() sim.Breakdown { return c.lastBreakdown }

// Download stores a compressed function bitstream and its record into ROM
// (the host pushes these over PCI at provisioning time, paper §2.2). It
// returns the on-card time consumed. A blob that does not decode to the
// record's frames is rejected here, leaving the ROM unchanged.
func (c *Controller) Download(rec memory.Record, blob []byte) (sim.Time, error) {
	plan, err := c.newPlan(rec, blob)
	if err != nil {
		return 0, err
	}
	if err := c.rom.Install(rec, blob); err != nil {
		return 0, err
	}
	c.plans[rec.FnID] = plan
	// ROM programming: model write cost like read cost plus a flat
	// programming overhead per install.
	cycles := memory.ReadCycles(len(blob)+memory.RecordBytes) + 64
	return c.mcuDom.Span(cycles), nil
}

// Evict removes fn from the fabric if resident (host-initiated eviction).
func (c *Controller) Evict(fn uint16) bool {
	if _, ok := c.kernel.table[fn]; !ok {
		return false
	}
	c.evict(fn, &c.lastBreakdown)
	return true
}

// Execute runs function fnID over input, loading it onto the fabric first
// if needed. It returns the output and the per-phase latency breakdown of
// this request (excluding PCI transfer, which the host side owns). The
// output is the card's RAM output window, where the output-collection
// module left it: it is valid until the next command, which the host
// reads it out before. The request is also recorded as a one-stage list
// for LastChainStages.
func (c *Controller) Execute(fnID uint16, input []byte) ([]byte, sim.Breakdown, error) {
	var br sim.Breakdown
	spanBase := c.stats.Phases.Total() + c.stats.PrefetchTime
	out, hit, err := c.execute(fnID, input, &br)
	c.lastBreakdown = br
	c.chain[0] = ChainStage{Fn: fnID, Hit: hit, Cost: br}
	c.lastChain = c.chain[:1]
	c.stats.Phases.AddAll(br)
	if err != nil {
		c.stats.Errors++
		c.emit(trace.KindError, fnID, 0, 0, err.Error())
		c.observeRequest(fnID, br, false, err)
		return nil, br, err
	}
	c.emitSpans(fnID, spanBase, br)
	c.observeRequest(fnID, br, hit, nil)
	if c.cfg.Prefetch {
		c.prefetchNext(fnID)
	}
	return out, br, nil
}

// prefetchNext is the configuration prefetcher: it learns first-order
// request succession and speculatively loads the predicted next function
// during host idle time. Its cost lands in Stats.PrefetchTime, never on a
// request — that is the point: reconfiguration latency hides behind the
// host's think time.
func (c *Controller) prefetchNext(cur uint16) {
	k := &c.kernel
	if k.haveLast && k.lastFn != cur {
		k.succ[k.lastFn] = cur
	}
	k.lastFn, k.haveLast = cur, true

	pred, ok := k.succ[cur]
	if !ok || pred == cur {
		return
	}
	if _, resident := k.table[pred]; resident {
		return
	}
	rec, scanned, err := c.findRecord(pred)
	var br sim.Breakdown
	br.Add(sim.PhaseROM, c.mcuDom.Span(memory.ReadCycles(scanned*memory.RecordBytes)))
	if err == nil {
		if res, lerr := c.load(rec, &br); lerr == nil {
			res.lastAccess = k.now
			k.prefetched[pred] = true
			c.stats.Prefetches++
			c.emit(trace.KindPrefetch, pred, len(res.frames), 0, "")
			if c.metrics != nil {
				c.metrics.Counter("agile_prefetches_total",
					metrics.L("fn", c.fnLabel(pred))).Inc()
			}
		}
	}
	c.stats.PrefetchTime += br.Total()
	if c.metrics != nil && br.Total() != 0 {
		// Off-request work labels with the prefetch pseudo-phase.
		c.metrics.Histogram("agile_phase_seconds",
			metrics.L("phase", sim.PhasePrefetch.String()),
			metrics.L("fn", c.fnLabel(pred))).Observe(br.Total())
	}
}

func (c *Controller) execute(fnID uint16, input []byte, br *sim.Breakdown) ([]byte, bool, error) {
	if len(input) == 0 {
		return nil, false, fmt.Errorf("mcu: empty input for function %d", fnID)
	}
	res, hit, err := c.makeResident(fnID, len(input), "", br)
	if err != nil {
		return nil, hit, err
	}
	out, _, err := c.runStage(res, input, br)
	return out, hit, err
}

// makeResident is the residency half of one stage, shared by plain and
// chained execution: count the request, then probe the Frame
// Replacement Table. A function resident with a valid instance is a
// hit, and its record comes from its own table row: the ROM is not
// read. A miss scans the ROM record table and loads the function,
// evicting it first if its instance was invalidated in place. It
// returns the function's row. Every cost lands in br. detail tags the
// request's trace event.
func (c *Controller) makeResident(fn uint16, inputLen int, detail string, br *sim.Breakdown) (*resident, bool, error) {
	k := &c.kernel
	c.stats.Requests++
	k.now++
	c.emit(trace.KindRequest, fn, 0, inputLen, detail)

	res, resident := k.table[fn]
	hit := resident && res.inst.Valid()
	if hit {
		c.stats.Hits++
		c.emit(trace.KindHit, fn, len(res.frames), 0, "")
	} else {
		// Record lookup: the mini OS scans the ROM record table.
		rec, scanned, err := c.findRecord(fn)
		br.Add(sim.PhaseROM, c.mcuDom.Span(memory.ReadCycles(scanned*memory.RecordBytes)))
		if err != nil {
			return nil, false, err
		}
		if resident {
			// A clobbered frame invalidated the instance: evict and reload.
			c.evict(fn, br)
		}
		c.stats.Misses++
		c.emit(trace.KindMiss, fn, 0, 0, "")
		if res, err = c.load(rec, br); err != nil {
			return nil, false, err
		}
	}
	if c.cfg.Prefetch {
		if hit && k.prefetched[fn] {
			c.stats.PrefetchHits++
		}
		delete(k.prefetched, fn)
	}
	res.lastAccess = k.now
	k.policy.OnAccess(fn, k.now)
	return res, hit, nil
}

// runStage is the dataflow half of one stage: the data-input module
// stages input in the input window, zero-padded to a multiple of the
// record's input bus width (§2.3), and streams it to the fabric; the
// function executes straight into the output window, which the
// output-collection module zero-pads to a multiple of OutBus. Both
// modules are DMA engines against dual-ported staging RAM, so the RAM
// access hides behind the bus beats; the charge is beats plus setup.
// input may alias either window: a chain stage's input is the previous
// stage's output. out aliases the output window; staged reports the
// padded input bytes.
func (c *Controller) runStage(res *resident, input []byte, br *sim.Breakdown) (out []byte, staged int, err error) {
	rec := &res.rec
	inWin, outWin := c.ram.Capacity()/2, c.ram.Capacity()/2
	staged = Padded(len(input), int(rec.InBus))
	if staged > inWin {
		return nil, 0, fmt.Errorf("%w: function %d input %d bytes, window %d", ErrRAMWindow, rec.FnID, staged, inWin)
	}
	padded, err := c.ram.Region(0, staged)
	if err != nil {
		return nil, 0, err
	}
	clear(padded[copy(padded, input):])
	inBeats := uint64(staged) / uint64(rec.InBus)
	br.Add(sim.PhaseDataIn, c.mcuDom.Span(inBeats+4))

	// The output's size is known before the fabric runs, so a result the
	// window cannot hold is refused without running it.
	outLen := res.inst.Core().OutputLen(staged)
	outPadded := Padded(outLen, int(rec.OutBus))
	if outPadded > outWin {
		return nil, staged, fmt.Errorf("%w: function %d output %d bytes, window %d", ErrRAMWindow, rec.FnID, outPadded, outWin)
	}
	win, err := c.ram.Region(inWin, outPadded)
	if err != nil {
		return nil, staged, err
	}
	out = win[:outLen]
	fabCycles, err := res.inst.Exec(out, padded)
	if err != nil {
		return nil, staged, err
	}
	br.Add(sim.PhaseExec, c.fabDom.Span(fabCycles))
	clear(win[outLen:])
	outBeats := uint64(outPadded) / uint64(rec.OutBus)
	br.Add(sim.PhaseDataOut, c.mcuDom.Span(outBeats+4))
	return out, staged, nil
}

// findRecord is the mini OS's record lookup, reporting how many records
// its scan of the table touches: every slot up to the target's, or the
// whole table for an unknown id. The scan is charged, not executed: the
// host answers from the ROM's id index.
func (c *Controller) findRecord(fnID uint16) (memory.Record, int, error) {
	rec, slot, err := c.rom.FindByID(fnID)
	if err != nil {
		return rec, c.rom.NumRecords(), fmt.Errorf("%w (function %d)", memory.ErrNoRecord, fnID)
	}
	return rec, slot + 1, nil
}

// Padded reports the bytes a data module moves for n bytes over a bus
// of the given width: n rounded up to whole bus words (§2.3: every
// transfer is a multiple of the interface bus width). The host driver
// sizes a job's items with it before they reach the card.
func Padded(n, bus int) int {
	if bus <= 0 {
		bus = 1
	}
	return (n + bus - 1) / bus * bus
}
