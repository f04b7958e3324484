// Package agilefpga is a simulation library reproducing the FPGA-based
// Agile Algorithm-On-Demand Co-Processor of Pradeep, Vinay, Burman and
// Kamakoti (DATE 2005). It assembles a full virtual PCI card — a
// partially reconfigurable FPGA fabric, a microcontroller running the
// paper's mini OS (Free Frame List, Frame Replacement Table, LRU frame
// replacement), a two-ended bitstream ROM with compressed configuration
// images, staging RAM, and a transaction-level 32-bit/33 MHz PCI bus —
// and executes any of a ten-function algorithm bank on demand, swapping
// functions in and out of the fabric exactly as the paper describes.
//
// Quick start:
//
//	cp, err := agilefpga.New(agilefpga.Config{})
//	if err != nil { ... }
//	if err := cp.InstallAll(); err != nil { ... }
//	res, err := cp.Call("aes128", plaintext)
//	fmt.Println(res.Latency, res.Hit, res.Output)
//
// All timing is virtual (cycle-accurate cost models per clock domain), so
// results are deterministic and independent of the machine running the
// simulation.
//
// Every CoProcessor method is safe for concurrent use (one lock per
// card), and NewCluster scales out to many cards behind a dispatcher
// with synchronous (Call), asynchronous (Submit/Wait) and bulk (Serve)
// entry points — see Cluster.
package agilefpga

import (
	"fmt"
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/mcu"
	"agilefpga/internal/metrics"
	"agilefpga/internal/replace"
)

// Config selects the card's build options. The zero value is a sensible
// default: a 48-frame device, lz77 compression, LRU replacement,
// scatter placement allowed.
type Config struct {
	// Rows and Cols size the fabric: Cols frames of Rows CLBs each.
	// Zero selects 32×48.
	Rows, Cols int
	// ROMBytes and RAMBytes size the on-card memories (defaults 512 KiB
	// and 64 KiB).
	ROMBytes, RAMBytes int
	// Codec picks the bitstream compression: "none", "rle", "lz77"
	// (default), "huffman" or "framediff".
	Codec string
	// Policy picks frame replacement: "lru" (default, the paper's),
	// "fifo", "lfu" or "random".
	Policy string
	// PolicySeed seeds the random policy.
	PolicySeed uint64
	// WindowBytes is the configuration module's decompression window
	// (default 256).
	WindowBytes int
	// ContiguousOnly forbids non-contiguous frame placement.
	ContiguousOnly bool
	// DiffReload enables the difference-based reconfiguration flow:
	// eviction leaves frame contents in place and a returning function
	// whose frames are provably untouched re-activates without any
	// reconfiguration.
	DiffReload bool
	// Prefetch enables configuration prefetching: the mini OS predicts
	// the next function and loads it during host idle time.
	Prefetch bool
	// DecodeCacheBytes bounds the decoded-frame cache: local RAM holding
	// recently decoded configuration images so a reload skips bitstream
	// decompression (the configuration port is still paid). Zero
	// disables the cache.
	DecodeCacheBytes int
	// Metrics enables the telemetry registry: per-phase latency
	// histograms and behaviour counters, exported in Prometheus text
	// format (see CoProcessor.Metrics / Cluster.Metrics). Observation is
	// passive, so enabling it changes no virtual-time result.
	Metrics bool
}

// Function describes one member of the algorithm bank.
type Function struct {
	Name string
	ID   uint16
	// LUTs is the synthesis footprint; Frames its frame demand on the
	// default geometry.
	LUTs   int
	Frames int
	// BlockBytes is the natural input granule; inputs are zero-padded to
	// a whole number of blocks.
	BlockBytes int
	// InBus and OutBus are the on-card data bus widths in bytes.
	InBus, OutBus int
}

// ConvEncode runs the K=7 rate-1/2 convolutional encoder matching the
// bank's viterbi decoder (8-info-byte block framing). Hosts encode in
// software — it is cheap shift-register logic — and offload only the
// decoder.
func ConvEncode(info []byte) []byte { return algos.ConvEncode(info) }

// Functions lists the algorithm bank.
func Functions() []Function {
	out := make([]Function, 0, 10)
	for _, f := range algos.Bank() {
		out = append(out, Function{
			Name: f.Name(), ID: f.ID(), LUTs: f.LUTs,
			Frames:     fpga.DefaultGeometry.FramesForLUTs(f.LUTs),
			BlockBytes: f.BlockBytes, InBus: int(f.InBus), OutBus: int(f.OutBus),
		})
	}
	return out
}

// Result reports one co-processor call.
type Result struct {
	// Output is the function's result.
	Output []byte
	// Latency is the full round-trip virtual time, PCI included.
	Latency time.Duration
	// Hit reports whether the function was already configured.
	Hit bool
	// Phases breaks the latency down by pipeline stage ("pci", "rom",
	// "decompress", "configure", "datain", "exec", "dataout",
	// "overhead", "cache", "pipestall" — the last is time the pipelined
	// cold-load path stalled waiting on a slow decoder).
	Phases map[string]time.Duration
}

// Stats summarises card behaviour since construction (or ResetStats).
type Stats struct {
	Requests, Hits, Misses uint64
	Evictions              uint64
	FramesLoaded           uint64
	RawConfigBytes         uint64
	CompConfigBytes        uint64
	HitRate                float64
	// FramesSkipped counts frames revived by the difference-based flow.
	FramesSkipped uint64
	// Prefetches and PrefetchHits report the configuration prefetcher.
	Prefetches   uint64
	PrefetchHits uint64
	// DecompCacheHits and DecompCacheBytes report reloads served from
	// the decoded-frame cache and the decoded bytes they avoided
	// re-decompressing.
	DecompCacheHits  uint64
	DecompCacheBytes uint64
	// PipelinedLoads and PipeWindows count cold loads costed through the
	// pipelined configuration model and the decompression windows fed
	// through it; PipeStall and PipeOverlapSaved are the critical-path
	// bubble time and the virtual time the overlap hid versus charging
	// the same stage costs back to back.
	PipelinedLoads   uint64
	PipeWindows      uint64
	PipeStall        time.Duration
	PipeOverlapSaved time.Duration
	// ChainRuns, ChainStages and ChainHandoffBytes report on-fabric
	// function chaining: chained invocations served, stages they ran,
	// and intermediate bytes handed between stages through local RAM
	// instead of crossing PCI.
	ChainRuns         uint64
	ChainStages       uint64
	ChainHandoffBytes uint64
}

// BatchResult reports a pipelined batch of calls (see CallBatch).
type BatchResult struct {
	Outputs [][]byte
	// Latency is the batch completion time under double-buffered DMA.
	Latency time.Duration
	// SequentialLatency is the cost of the same items as one-at-a-time
	// synchronous calls with nothing overlapped: each item's data-in,
	// execution and data-out back to back. For a one-item batch it is
	// Latency.
	SequentialLatency time.Duration
	// OverlapSaved is the card time hidden against that cost: each item
	// streams through the card granule by granule, and the data-input
	// module stages item N+1 while the fabric executes N. Zero for a
	// one-item batch.
	OverlapSaved time.Duration
	// Hits counts items served without reconfiguration.
	Hits int
}

// CoProcessor is a simulated agile algorithm-on-demand card.
type CoProcessor struct {
	inner *core.CoProcessor
}

// card converts the public options into the card's internal
// configuration. New and NewCluster both build from it.
func (cfg Config) card() (core.Config, error) {
	out := core.Config{
		ROMBytes:         cfg.ROMBytes,
		RAMBytes:         cfg.RAMBytes,
		WindowBytes:      cfg.WindowBytes,
		Codec:            cfg.Codec,
		ContiguousOnly:   cfg.ContiguousOnly,
		DiffReload:       cfg.DiffReload,
		Prefetch:         cfg.Prefetch,
		DecodeCacheBytes: cfg.DecodeCacheBytes,
	}
	if cfg.Rows != 0 || cfg.Cols != 0 {
		out.Geometry = fpga.Geometry{Rows: cfg.Rows, Cols: cfg.Cols}
	}
	if cfg.Policy != "" {
		pol, err := replace.New(cfg.Policy, cfg.PolicySeed)
		if err != nil {
			return core.Config{}, err
		}
		out.Policy = pol
	}
	if cfg.Metrics {
		out.Metrics = metrics.NewRegistry()
	}
	return out, nil
}

// New assembles a card.
func New(cfg Config) (*CoProcessor, error) {
	card, err := cfg.card()
	if err != nil {
		return nil, err
	}
	inner, err := core.New(card)
	if err != nil {
		return nil, err
	}
	return &CoProcessor{inner: inner}, nil
}

// Install provisions one bank function by name (synthesise → compress →
// download into the card's ROM).
func (cp *CoProcessor) Install(name string) error {
	f, err := algos.ByName(name)
	if err != nil {
		return err
	}
	_, err = cp.inner.Install(f)
	return err
}

// InstallAll provisions the entire algorithm bank.
func (cp *CoProcessor) InstallAll() error {
	_, err := cp.inner.InstallBank()
	return err
}

// resultOf converts a core call result to the public form.
func resultOf(r *core.CallResult) *Result {
	return &Result{
		Output:  r.Output,
		Latency: r.Latency.Duration(),
		Hit:     r.Hit,
		Phases:  phasesOf(r.Breakdown),
	}
}

// batchResultOf converts a core multi-item result to the public form.
func batchResultOf(r *core.Result, err error) (*BatchResult, error) {
	if err != nil {
		return nil, err
	}
	return &BatchResult{
		Outputs:           r.Outputs,
		Latency:           r.Latency.Duration(),
		SequentialLatency: r.SequentialLatency.Duration(),
		OverlapSaved:      r.OverlapSaved.Duration(),
		Hits:              r.Hits,
	}, nil
}

// Call executes the named function on the card, configuring it on demand.
func (cp *CoProcessor) Call(name string, input []byte) (*Result, error) {
	r, err := cp.inner.Call(name, input)
	if err != nil {
		return nil, err
	}
	return resultOf(r), nil
}

// CallBatch executes the named function over every input through a
// double-buffered DMA pipeline: the PCI bus streams the next item while
// the card computes the current one. Outputs and card state match
// issuing the calls one by one; only the latency model differs.
func (cp *CoProcessor) CallBatch(name string, inputs [][]byte) (*BatchResult, error) {
	return batchResultOf(cp.inner.CallBatch(name, inputs))
}

// RunHost executes the same function in host software (the offload
// baseline), returning the output and modelled host time.
func (cp *CoProcessor) RunHost(name string, input []byte) ([]byte, time.Duration, error) {
	out, t, err := cp.inner.RunHost(name, input)
	if err != nil {
		return nil, 0, err
	}
	return out, t.Duration(), nil
}

// Resident reports whether the named function currently occupies frames.
func (cp *CoProcessor) Resident(name string) (bool, error) {
	f, err := algos.ByName(name)
	if err != nil {
		return false, err
	}
	return cp.inner.Resident(f.ID()), nil
}

// Evict removes the named function from the fabric if resident.
func (cp *CoProcessor) Evict(name string) (bool, error) {
	f, err := algos.ByName(name)
	if err != nil {
		return false, err
	}
	return cp.inner.Evict(f.ID()), nil
}

// Utilization reports configured frames versus total.
func (cp *CoProcessor) Utilization() (configured, total int) {
	return cp.inner.Utilization()
}

// statsOf converts the mini OS's counters to the public form.
func statsOf(st mcu.Stats) Stats {
	return Stats{
		Requests: st.Requests, Hits: st.Hits, Misses: st.Misses,
		Evictions: st.Evictions, FramesLoaded: st.FramesLoaded,
		RawConfigBytes: st.RawConfigBytes, CompConfigBytes: st.CompConfigBytes,
		HitRate:           st.HitRate(),
		FramesSkipped:     st.FramesSkipped,
		Prefetches:        st.Prefetches,
		PrefetchHits:      st.PrefetchHits,
		DecompCacheHits:   st.DecompCacheHits,
		DecompCacheBytes:  st.DecompCacheBytes,
		PipelinedLoads:    st.PipelinedLoads,
		PipeWindows:       st.PipeWindows,
		PipeStall:         st.PipeStallTime.Duration(),
		PipeOverlapSaved:  st.PipeOverlapSaved.Duration(),
		ChainRuns:         st.ChainRuns,
		ChainStages:       st.ChainStages,
		ChainHandoffBytes: st.ChainHandoffBytes,
	}
}

// Stats summarises card behaviour.
func (cp *CoProcessor) Stats() Stats { return statsOf(cp.inner.Stats()) }

// ResetStats zeroes the counters; residency is unaffected.
func (cp *CoProcessor) ResetStats() { cp.inner.ResetStats() }

// ScrubReport summarises one SEU-scrubbing pass (see Scrub).
type ScrubReport struct {
	FramesChecked  int
	FramesRepaired int
	Time           time.Duration
}

// Scrub reads every resident function's frames back, compares them with
// the ROM golden images, and rewrites any frame an upset corrupted — the
// standard defence of partially reconfigurable systems against radiation.
func (cp *CoProcessor) Scrub() (*ScrubReport, error) {
	rep, err := cp.inner.Controller().Scrub()
	if err != nil {
		return nil, err
	}
	return &ScrubReport{
		FramesChecked:  rep.FramesChecked,
		FramesRepaired: rep.FramesRepaired,
		Time:           rep.Time.Duration(),
	}, nil
}

// CheckInvariants verifies the mini-OS bookkeeping (used by tests and
// long-running examples).
func (cp *CoProcessor) CheckInvariants() error {
	return cp.inner.CheckInvariants()
}

// String identifies the card configuration.
func (cp *CoProcessor) String() string {
	return fmt.Sprintf("agile co-processor: %s, codec %s, policy %s",
		cp.inner.Controller().Fabric().Geometry(), cp.inner.Codec().Name(),
		cp.inner.Controller().PolicyName())
}
