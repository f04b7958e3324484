package fpga

import "fmt"

// Core is the behavioural model of one hardware function: the logic that a
// configured frame set realises. ExecInto defines the input→output
// behaviour; ExecCycles is the fabric-clock cost model (what the real
// logic would take, typically derived from the core's pipeline depth and
// throughput).
//
// A Core is looked up by the function id carried in the frame signatures
// at activation time, so execution requires that the right bits actually
// reached the fabric.
type Core interface {
	ID() uint16
	Name() string
	// OutputLen reports the output size for inputLen bytes of input.
	OutputLen(inputLen int) int
	// ExecInto computes the function over input into dst, which holds
	// exactly OutputLen(len(input)) bytes. Implementations treat input
	// as read-only, write every byte of dst and never read what dst held
	// before: dst is storage the card owns (its RAM output window), which
	// still holds the previous request's output.
	ExecInto(dst, input []byte) error
	// ExecCycles reports fabric cycles to process inputLen bytes.
	ExecCycles(inputLen int) uint64
	// Granule reports the input bytes the core starts work on: its
	// natural block rounded up to whole input-bus words. The card streams
	// an item through its data modules and the core granule by granule,
	// so ExecCycles, and OutputLen when it grows with input, must grow by
	// the same amount for every whole granule past the first.
	Granule() int
}

// Registry maps function ids to behavioural cores. It models the library
// of netlists the co-processor vendor shipped bitstreams for. The zero
// value is not usable; use NewRegistry.
type Registry struct {
	byID   map[uint16]Core
	byName map[string]Core
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[uint16]Core), byName: make(map[string]Core)}
}

// Register adds a core. Registering a duplicate id or name is an error.
func (r *Registry) Register(c Core) error {
	if c == nil {
		return fmt.Errorf("fpga: Register(nil)")
	}
	if _, dup := r.byID[c.ID()]; dup {
		return fmt.Errorf("fpga: duplicate core id %d (%s)", c.ID(), c.Name())
	}
	if _, dup := r.byName[c.Name()]; dup {
		return fmt.Errorf("fpga: duplicate core name %q", c.Name())
	}
	r.byID[c.ID()] = c
	r.byName[c.Name()] = c
	return nil
}

// Lookup resolves a core by function id.
func (r *Registry) Lookup(id uint16) (Core, bool) {
	c, ok := r.byID[id]
	return c, ok
}
