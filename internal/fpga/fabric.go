package fpga

import (
	"errors"
	"fmt"
	"slices"
)

// Fabric is the simulated partially reconfigurable device: frame-organised
// configuration memory, a configuration port, and behavioural execution of
// activated functions.
type Fabric struct {
	geom Geometry
	reg  *Registry
	port ConfigPort

	cfg        [][]byte // configuration memory, one slice per frame
	generation []uint64 // bumped on every write to a frame

	idcode uint32
}

// DefaultIDCode identifies the simulated device family ("AGL1" in hex).
const DefaultIDCode = 0xA617_0001

// NewFabric creates a fabric with the given geometry, drawing function
// behaviour from reg. It panics on an invalid geometry (a construction
// bug, not a runtime condition).
func NewFabric(geom Geometry, reg *Registry) *Fabric {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	f := &Fabric{
		geom:       geom,
		reg:        reg,
		cfg:        make([][]byte, geom.NumFrames()),
		generation: make([]uint64, geom.NumFrames()),
		idcode:     DefaultIDCode,
	}
	for i := range f.cfg {
		f.cfg[i] = make([]byte, geom.FrameBytes())
	}
	f.port.fab = f
	f.port.frame = make([]byte, geom.FrameBytes())
	return f
}

// Geometry reports the fabric dimensions.
func (f *Fabric) Geometry() Geometry { return f.geom }

// IDCode reports the device identity checked against bitstream IDCODE
// writes.
func (f *Fabric) IDCode() uint32 { return f.idcode }

// Port returns the configuration port.
func (f *Fabric) Port() *ConfigPort { return &f.port }

// ReadFrame returns a copy of frame i's configuration memory (readback).
func (f *Fabric) ReadFrame(i int) ([]byte, error) {
	if i < 0 || i >= f.geom.NumFrames() {
		return nil, fmt.Errorf("%w: %d", ErrFrameAddress, i)
	}
	out := make([]byte, f.geom.FrameBytes())
	copy(out, f.cfg[i])
	return out, nil
}

// ClearFrame zeroes frame i, returning its logic space to the empty state.
func (f *Fabric) ClearFrame(i int) error {
	if i < 0 || i >= f.geom.NumFrames() {
		return fmt.Errorf("%w: %d", ErrFrameAddress, i)
	}
	for j := range f.cfg[i] {
		f.cfg[i][j] = 0
	}
	f.generation[i]++
	return nil
}

// InjectSEU flips one configuration bit of frame i — a single-event
// upset. Crucially it does NOT bump the frame's write generation:
// radiation does not announce itself to the bookkeeping, which is exactly
// why scrubbing (mcu.Controller.Scrub) has to read configuration memory
// back and compare against the golden image.
func (f *Fabric) InjectSEU(i, bit int) error {
	if i < 0 || i >= f.geom.NumFrames() {
		return fmt.Errorf("%w: %d", ErrFrameAddress, i)
	}
	nbits := f.geom.FrameBytes() * 8
	if bit < 0 || bit >= nbits {
		return fmt.Errorf("fpga: SEU bit %d out of range (frame has %d bits)", bit, nbits)
	}
	f.cfg[i][bit/8] ^= 1 << uint(bit%8)
	return nil
}

// Generation reports the write counter of frame i: it bumps on every
// configuration write or clear, letting bookkeeping layers prove a frame
// is untouched since they last wrote it. Out-of-range frames report 0.
func (f *Fabric) Generation(i int) uint64 {
	if i < 0 || i >= f.geom.NumFrames() {
		return 0
	}
	return f.generation[i]
}

// FrameSignature decodes the function signature of frame i. ok is false
// for empty or corrupted frames.
func (f *Fabric) FrameSignature(i int) (Signature, bool) {
	if i < 0 || i >= f.geom.NumFrames() {
		return Signature{}, false
	}
	return DecodeSignature(f.cfg[i])
}

// Utilization reports how many frames currently hold a valid signature.
func (f *Fabric) Utilization() (configured, total int) {
	for i := range f.cfg {
		if _, ok := DecodeSignature(f.cfg[i]); ok {
			configured++
		}
	}
	return configured, f.geom.NumFrames()
}

// Activation errors.
var (
	ErrNoFrames     = errors.New("fpga: activation with empty frame set")
	ErrBadSignature = errors.New("fpga: frame carries no valid function signature")
	ErrMixedFrames  = errors.New("fpga: frame set spans more than one function")
	ErrIncomplete   = errors.New("fpga: frame set does not cover the whole function")
	ErrUnknownCore  = errors.New("fpga: no behavioural core registered for function")
	ErrOverwritten  = errors.New("fpga: function frames were reconfigured since activation")
)

// seenOnStack is the frame count up to which Activate's duplicate check
// lives on the stack: a frame set never outnumbers the fabric's columns,
// and the default geometry has 48.
const seenOnStack = 256

// Activate binds the frames to the function whose bitstream they carry,
// writing the binding into inst: a Frame Replacement Table row keeps one
// Instance per function and re-activates it on every load, reusing its
// storage. Every frame must hold a valid signature of the same function
// and serial, and the frame indices must cover 0..Total-1 exactly. The
// behavioural core is resolved through the registry; activation fails
// if the configured function has no registered core — the fabric cannot
// execute bits it does not recognise. A failed activation leaves inst
// as it was.
func (f *Fabric) Activate(inst *Instance, frames []int) error {
	if len(frames) == 0 {
		return ErrNoFrames
	}
	var first Signature
	var stack [seenOnStack]bool
	seen := stack[:]
	if len(frames) > len(stack) {
		seen = make([]bool, len(frames))
	}
	for n, fi := range frames {
		if fi < 0 || fi >= f.geom.NumFrames() {
			return fmt.Errorf("%w: %d", ErrFrameAddress, fi)
		}
		sig, ok := DecodeSignature(f.cfg[fi])
		if !ok {
			return fmt.Errorf("%w: frame %d", ErrBadSignature, fi)
		}
		if n == 0 {
			first = sig
			if int(sig.Total) != len(frames) {
				return fmt.Errorf("%w: function %d wants %d frames, activation names %d",
					ErrIncomplete, sig.FnID, sig.Total, len(frames))
			}
		} else if sig.FnID != first.FnID || sig.Serial != first.Serial {
			return fmt.Errorf("%w: frame %d holds fn %d/serial %d, expected fn %d/serial %d",
				ErrMixedFrames, fi, sig.FnID, sig.Serial, first.FnID, first.Serial)
		}
		if int(sig.Index) >= len(frames) || seen[sig.Index] {
			return fmt.Errorf("%w: duplicate or out-of-range frame index %d", ErrIncomplete, sig.Index)
		}
		seen[sig.Index] = true
	}
	core, ok := f.reg.Lookup(first.FnID)
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownCore, first.FnID)
	}
	inst.fab, inst.core, inst.serial, inst.Execs = f, core, first.Serial, 0
	inst.frames = append(inst.frames[:0], frames...)
	slices.Sort(inst.frames)
	inst.gens = inst.gens[:0]
	for _, fi := range inst.frames {
		inst.gens = append(inst.gens, f.generation[fi])
	}
	return nil
}

// Instance is an activated function: a binding between a set of configured
// frames and the behavioural core the bits identify. The binding is
// invalidated if any of its frames is reconfigured. The zero Instance
// is bound to nothing; Fabric.Activate binds it.
type Instance struct {
	fab    *Fabric
	core   Core
	serial uint16
	frames []int
	gens   []uint64

	// Execs counts completed executions.
	Execs uint64
}

// Core reports the behavioural core bound to the instance.
func (in *Instance) Core() Core { return in.core }

// Valid reports whether all frames still hold the configuration the
// instance was activated with.
func (in *Instance) Valid() bool {
	for n, fi := range in.frames {
		if in.fab.generation[fi] != in.gens[n] {
			return false
		}
	}
	return true
}

// Exec runs the function on in-fabric data into dst, which holds
// exactly Core().OutputLen(len(input)) bytes (see Core.ExecInto), and
// reports the fabric-clock cycle cost. It fails with ErrOverwritten if
// any frame was reconfigured after activation.
func (in *Instance) Exec(dst, input []byte) (cycles uint64, err error) {
	if !in.Valid() {
		return 0, ErrOverwritten
	}
	if err := in.core.ExecInto(dst, input); err != nil {
		return 0, fmt.Errorf("fpga: core %q: %w", in.core.Name(), err)
	}
	in.Execs++
	return in.core.ExecCycles(len(input)), nil
}
