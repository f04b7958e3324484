// Package core assembles the full co-processor of the paper's Figure 1:
// the PCI bus, the microcontroller with its ROM/RAM and mini OS, and the
// partially reconfigurable fabric — plus the host-side driver that talks
// to the card exactly the way the paper describes (inputs over PCI into
// local RAM, commands to the microcontroller, outputs collected back).
//
// It also carries the host software baseline (RunHost) used by the
// offload experiments: the same behavioural computation costed with the
// function's host-cycle model instead of the card pipeline.
package core

import (
	"errors"
	"fmt"
	"sync"

	"agilefpga/internal/algos"
	"agilefpga/internal/bitstream"
	"agilefpga/internal/compress"
	"agilefpga/internal/fpga"
	"agilefpga/internal/mcu"
	"agilefpga/internal/memory"
	"agilefpga/internal/metrics"
	"agilefpga/internal/pci"
	"agilefpga/internal/sim"
	"agilefpga/internal/trace"
)

// HostHz is the host CPU clock for the software baseline: a 2 GHz scalar
// machine of the paper's era.
const HostHz = 2_000_000_000

// Config is the card's build options. It is mcu.Config itself: the
// host driver takes the card configuration as given, and mcu.New applies
// every default.
type Config = mcu.Config

// CoProcessor is the assembled card plus its host driver. All exported
// methods are safe for concurrent use: one mutex serialises the card, so
// a cluster of cards runs genuinely in parallel — one lock per card.
// Controller() escapes the lock; confine it to single-threaded code.
type CoProcessor struct {
	mu    sync.Mutex
	cfg   Config
	reg   *fpga.Registry
	ctrl  *mcu.Controller
	bus   *pci.Bus
	codec compress.Codec

	pciDom  *sim.Domain
	hostDom *sim.Domain

	slot      int
	installed map[uint16]*algos.Function
	serial    uint16
	metrics   *metrics.Registry
}

// New assembles a co-processor with the full algorithm bank registered.
func New(cfg Config) (*CoProcessor, error) {
	reg := fpga.NewRegistry()
	if err := algos.RegisterAll(reg); err != nil {
		return nil, err
	}
	ctrl, err := mcu.New(cfg, reg)
	if err != nil {
		return nil, err
	}
	cfg = ctrl.Config()
	codec, err := compress.New(cfg.Codec, cfg.Geometry.FrameBytes())
	if err != nil {
		return nil, err
	}
	bus := pci.NewBus()
	const slot = 4
	if err := bus.Attach(slot, ctrl); err != nil {
		return nil, err
	}
	cp := &CoProcessor{
		cfg:       cfg,
		reg:       reg,
		ctrl:      ctrl,
		bus:       bus,
		codec:     codec,
		pciDom:    sim.NewDomain("pci", pci.BusHz),
		hostDom:   sim.NewDomain("host", HostHz),
		slot:      slot,
		installed: make(map[uint16]*algos.Function),
		metrics:   cfg.Metrics,
	}
	// A pre-burned ROM makes its functions callable immediately; the
	// serial counter resumes above the highest burned serial so later
	// installs stay distinguishable.
	if cfg.ROMImage != nil {
		for _, rec := range ctrl.ROM().Records() {
			if f, ok := algos.ByID(rec.FnID); ok {
				cp.installed[rec.FnID] = f
			}
			if rec.Serial > cp.serial {
				cp.serial = rec.Serial
			}
		}
	}
	return cp, nil
}

// Controller exposes the card's microcontroller (stats, invariants).
func (cp *CoProcessor) Controller() *mcu.Controller { return cp.ctrl }

// Codec reports the install-time compression codec.
func (cp *CoProcessor) Codec() compress.Codec { return cp.codec }

// BuildImage synthesises a function's frame images and compresses them
// with codec, returning the ROM record and blob. Exposed for the tooling
// (cmd/bitc) and the compression experiments.
func BuildImage(g fpga.Geometry, f *algos.Function, codec compress.Codec, serial uint16) (memory.Record, []byte, error) {
	images, err := bitstream.Synthesize(g, bitstream.Netlist{
		FnID: f.ID(), Serial: serial, LUTs: f.LUTs, Seed: f.Seed(),
	})
	if err != nil {
		return memory.Record{}, nil, err
	}
	raw := make([]byte, 0, len(images)*g.FrameBytes())
	for _, img := range images {
		raw = append(raw, img...)
	}
	blob, err := codec.Compress(raw)
	if err != nil {
		return memory.Record{}, nil, err
	}
	codecID, err := compress.IDOf(codec.Name())
	if err != nil {
		return memory.Record{}, nil, err
	}
	rec := memory.Record{
		Name:       f.Name(),
		FnID:       f.ID(),
		CodecID:    codecID,
		RawSize:    uint32(len(raw)),
		InBus:      f.InBus,
		OutBus:     f.OutBus,
		FrameCount: uint16(len(images)),
		Serial:     serial,
	}
	return rec, blob, nil
}

// Install provisions one bank function: synthesise, compress, push the
// blob over PCI into the card's ROM. It returns the provisioning time
// (bus transfer plus ROM programming).
func (cp *CoProcessor) Install(f *algos.Function) (sim.Time, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.install(f)
}

// install synthesises, compresses and downloads one bank function.
// The caller must hold cp.mu.
func (cp *CoProcessor) install(f *algos.Function) (sim.Time, error) {
	if f == nil {
		return 0, errors.New("core: Install(nil)")
	}
	cp.serial++
	rec, blob, err := BuildImage(cp.cfg.Geometry, f, cp.codec, cp.serial)
	if err != nil {
		return 0, err
	}
	return cp.download(f, rec, blob)
}

// InstallImage provisions a function from an already-built ROM record
// and compressed blob (see BuildImage). A cluster replicating one bank
// across many cards synthesises and compresses each image once and
// downloads the same blob everywhere, instead of paying the synthesis
// per card.
func (cp *CoProcessor) InstallImage(f *algos.Function, rec memory.Record, blob []byte) (sim.Time, error) {
	if f == nil {
		return 0, errors.New("core: InstallImage(nil)")
	}
	if rec.FnID != f.ID() {
		return 0, fmt.Errorf("core: record fn %d does not match %s (%d)", rec.FnID, f.Name(), f.ID())
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if rec.Serial > cp.serial {
		cp.serial = rec.Serial
	}
	return cp.download(f, rec, blob)
}

// download pushes a built image over PCI into the card's ROM and marks
// the function callable. Callers hold cp.mu.
func (cp *CoProcessor) download(f *algos.Function, rec memory.Record, blob []byte) (sim.Time, error) {
	// Provisioning transfer: blob plus record over the bus.
	busTime := cp.pciDom.Span(pci.TransferCycles(len(blob) + memory.RecordBytes))
	romTime, err := cp.ctrl.Download(rec, blob)
	if err != nil {
		return 0, err
	}
	cp.installed[f.ID()] = f
	return busTime + romTime, nil
}

// InstallBank installs the whole algorithm bank.
func (cp *CoProcessor) InstallBank() (sim.Time, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	var total sim.Time
	for _, f := range algos.Bank() {
		t, err := cp.install(f)
		if err != nil {
			return total, fmt.Errorf("core: installing %s: %w", f.Name(), err)
		}
		total += t
	}
	return total, nil
}

// lookup resolves a provisioned function by name.
func (cp *CoProcessor) lookup(name string) (*algos.Function, error) {
	f, err := algos.ByName(name)
	if err != nil {
		return nil, err
	}
	if _, ok := cp.installed[f.ID()]; !ok {
		return nil, fmt.Errorf("core: function %q not installed on the card", name)
	}
	return f, nil
}

// RunHost executes the function in host software: the same behaviour,
// costed with the function's host-cycle model. The offload baseline.
func (cp *CoProcessor) RunHost(name string, input []byte) ([]byte, sim.Time, error) {
	f, err := algos.ByName(name)
	if err != nil {
		return nil, 0, err
	}
	if len(input) == 0 {
		return nil, 0, errEmptyInput
	}
	out, err := f.Exec(input)
	if err != nil {
		return nil, 0, err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return out, cp.hostDom.Span(f.SWCycles(len(input))), nil
}

// SetTrace attaches a structured event log to the card (nil disables).
func (cp *CoProcessor) SetTrace(l *trace.Log) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.ctrl.SetTrace(l)
}

// SetCard stamps the card's identity onto its trace events and metric
// labels — the cluster numbers its cards with this.
func (cp *CoProcessor) SetCard(card int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.ctrl.SetCard(card)
}

// Metrics exposes the telemetry registry (nil when not configured).
func (cp *CoProcessor) Metrics() *metrics.Registry { return cp.metrics }

// Stats exposes the card's counters.
func (cp *CoProcessor) Stats() mcu.Stats {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.ctrl.Stats()
}

// ResetStats zeroes the card's counters (between experiment phases).
func (cp *CoProcessor) ResetStats() {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.ctrl.ResetStats()
}

// Resident reports whether fnID currently occupies fabric frames.
func (cp *CoProcessor) Resident(fnID uint16) bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.ctrl.Resident(fnID)
}

// Evict removes fnID from the fabric if resident.
func (cp *CoProcessor) Evict(fnID uint16) bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.ctrl.Evict(fnID)
}

// Utilization reports configured frames versus total.
func (cp *CoProcessor) Utilization() (configured, total int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.ctrl.Fabric().Utilization()
}

// CheckInvariants verifies the card's mini-OS bookkeeping.
func (cp *CoProcessor) CheckInvariants() error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.ctrl.CheckInvariants()
}
