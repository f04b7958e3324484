// Package pci is a transaction-level model of the 32-bit/33 MHz PCI bus
// the co-processor card sits on (the paper's proof-of-concept uses an
// Altera Stratix PCI development board). It models what the experiments
// need from PCI: per-transaction arbitration and address overhead, burst
// data phases and burst-length limits — enough that host↔board transfer
// cost scales the way a real bus makes it scale.
package pci

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Bus timing model, in PCI clock cycles.
const (
	// BusHz is the PCI clock.
	BusHz = 33_000_000
	// WordBytes is the bus width.
	WordBytes = 4
	// MaxBurstBytes caps one burst transaction (latency-timer expiry
	// forces re-arbitration on long transfers).
	MaxBurstBytes = 256

	arbCycles  = 3 // bus arbitration before each transaction
	addrCycles = 1 // address phase
	waitCycles = 1 // initial target wait state
)

// PCI errors.
var (
	ErrNoDevice = errors.New("pci: no device at slot")
	ErrBadBAR   = errors.New("pci: access to unimplemented BAR")
	ErrBounds   = errors.New("pci: access beyond BAR window")
	ErrSlotUsed = errors.New("pci: slot already occupied")
)

// Device is a PCI target: a set of base address register (BAR) windows.
type Device interface {
	// BARSize reports the size in bytes of the BAR window, 0 if the BAR
	// is unimplemented.
	BARSize(bar int) uint32
	// ReadBAR fills p from the BAR window at off.
	ReadBAR(bar int, off uint32, p []byte) error
	// WriteBAR stores p into the BAR window at off.
	WriteBAR(bar int, off uint32, p []byte) error
}

type slot struct {
	dev Device
	// word is the data phase of a single-word transaction. It lives in
	// the slot because a local array would escape through the Device
	// interface and cost an allocation per register access.
	word [WordBytes]byte
}

// Bus is a single-segment PCI bus with numbered slots. Like the real
// bus it carries one transaction at a time: callers serialise access
// (a card's host driver does so under its lock).
type Bus struct {
	slots map[int]*slot
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{slots: make(map[int]*slot)} }

// Attach plugs a device into a slot.
func (b *Bus) Attach(slotNo int, d Device) error {
	if d == nil {
		return errors.New("pci: Attach(nil device)")
	}
	if _, used := b.slots[slotNo]; used {
		return fmt.Errorf("%w: %d", ErrSlotUsed, slotNo)
	}
	b.slots[slotNo] = &slot{dev: d}
	return nil
}

func (b *Bus) at(slotNo int) (*slot, error) {
	s, ok := b.slots[slotNo]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoDevice, slotNo)
	}
	return s, nil
}

// TransferCycles is the bus cost of moving n bytes via burst
// transactions: each MaxBurstBytes chunk pays arbitration, address and
// wait-state overhead plus one cycle per data word.
func TransferCycles(n int) uint64 {
	if n <= 0 {
		return 0
	}
	var cycles uint64
	for n > 0 {
		chunk := n
		if chunk > MaxBurstBytes {
			chunk = MaxBurstBytes
		}
		words := (chunk + WordBytes - 1) / WordBytes
		cycles += arbCycles + addrCycles + waitCycles + uint64(words)
		n -= chunk
	}
	return cycles
}

// wordCycles is the cost of one single-word (non-burst) transaction.
const wordCycles = arbCycles + addrCycles + waitCycles + 1

func (b *Bus) checkAccess(s *slot, bar int, off uint32, n int) error {
	size := s.dev.BARSize(bar)
	if size == 0 {
		return fmt.Errorf("%w: BAR%d", ErrBadBAR, bar)
	}
	if uint64(off)+uint64(n) > uint64(size) {
		return fmt.Errorf("%w: BAR%d [%d, %d) of %d", ErrBounds, bar, off, uint64(off)+uint64(n), size)
	}
	return nil
}

// Read bursts len(p) bytes out of a device BAR window into p — storage
// the caller supplies, as a host driver supplies its DMA buffer — and
// returns the bus cycles consumed.
func (b *Bus) Read(slotNo, bar int, off uint32, p []byte) (uint64, error) {
	s, err := b.at(slotNo)
	if err != nil {
		return 0, err
	}
	if err := b.checkAccess(s, bar, off, len(p)); err != nil {
		return 0, err
	}
	if err := s.dev.ReadBAR(bar, off, p); err != nil {
		return 0, err
	}
	return TransferCycles(len(p)), nil
}

// Write bursts p into a device BAR window, returning bus cycles consumed.
func (b *Bus) Write(slotNo, bar int, off uint32, p []byte) (uint64, error) {
	s, err := b.at(slotNo)
	if err != nil {
		return 0, err
	}
	if err := b.checkAccess(s, bar, off, len(p)); err != nil {
		return 0, err
	}
	if err := s.dev.WriteBAR(bar, off, p); err != nil {
		return 0, err
	}
	return TransferCycles(len(p)), nil
}

// ReadWord performs a single-word MMIO read (register access).
func (b *Bus) ReadWord(slotNo, bar int, off uint32) (uint32, uint64, error) {
	s, err := b.at(slotNo)
	if err != nil {
		return 0, 0, err
	}
	if err := b.checkAccess(s, bar, off, WordBytes); err != nil {
		return 0, 0, err
	}
	if err := s.dev.ReadBAR(bar, off, s.word[:]); err != nil {
		return 0, 0, err
	}
	return binary.LittleEndian.Uint32(s.word[:]), wordCycles, nil
}

// WriteWord performs a single-word MMIO write (register access).
func (b *Bus) WriteWord(slotNo, bar int, off uint32, v uint32) (uint64, error) {
	s, err := b.at(slotNo)
	if err != nil {
		return 0, err
	}
	if err := b.checkAccess(s, bar, off, WordBytes); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint32(s.word[:], v)
	if err := s.dev.WriteBAR(bar, off, s.word[:]); err != nil {
		return 0, err
	}
	return wordCycles, nil
}
