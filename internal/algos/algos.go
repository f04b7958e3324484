// Package algos is the co-processor's algorithm bank: the computationally
// intensive functions whose configuration bitstreams live in ROM and swap
// in and out of the fabric on demand (paper §2.5). The bank leans on the
// paper's motivating domain — its two references are crypto co-processors
// — plus classic DSP and arithmetic kernels, giving the experiments a
// heterogeneous mix of frame footprints and I/O shapes.
//
// Each Function carries:
//
//   - a behavioural model (Exec), the ground truth of what the configured
//     logic computes, cross-checked against the Go standard library where
//     one exists;
//   - a resource estimate (LUTs) from which the frame demand follows;
//   - I/O bus widths — the paper's §2.3 data modules transfer in
//     multiples of these;
//   - a fabric cycle model (ExecCycles) for the pipelined hardware core;
//   - a host-software cycle model (SWCycles) for the offload baseline.
//
// Cycle models are engineering estimates for a 100 MHz fabric and a
// 2 GHz scalar host of the paper's era (no AES-NI, no SIMD); the offload
// experiments depend on their relative shape, not their absolute truth.
package algos

import (
	"fmt"

	"agilefpga/internal/fpga"
)

// Function is one member of the algorithm bank. It implements fpga.Core.
type Function struct {
	id   uint16
	name string

	// LUTs is the synthesis resource estimate; the frame demand on a
	// given geometry follows from it.
	LUTs int
	// InBus and OutBus are the data-module interface widths in bytes
	// (paper §2.3: every transfer is a multiple of the bus width).
	InBus  uint16
	OutBus uint16
	// BlockBytes is the natural input granule; Exec zero-pads input to a
	// whole number of blocks.
	BlockBytes int
	// outPerBlock is the output bytes produced per input block; outFixed,
	// when non-zero, overrides it with a fixed output size (digests).
	outPerBlock int
	outFixed    int

	// Fabric cycle model: setup + per-block cost of the pipelined core.
	hwSetup    uint64
	hwPerBlock uint64
	// Host cycle model: setup + per-byte cost of the software routine.
	swSetup   uint64
	swPerByte float64

	// run computes the behavioural model over block-padded input into
	// out, which holds exactly OutputLen(len(in)) bytes: it writes every
	// one of them and reads none back before writing it.
	run func(out, in []byte)
}

// ID implements fpga.Core.
func (f *Function) ID() uint16 { return f.id }

// Name implements fpga.Core.
func (f *Function) Name() string { return f.name }

// Blocks reports how many whole blocks cover n input bytes (minimum 1 for
// non-empty input).
func (f *Function) Blocks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + f.BlockBytes - 1) / f.BlockBytes
}

// pad returns in zero-padded to a whole number of blocks: in itself when
// it already is one (run only reads its input), a padded copy otherwise.
func (f *Function) pad(in []byte) []byte {
	n := f.Blocks(len(in)) * f.BlockBytes
	if n == len(in) {
		return in
	}
	padded := make([]byte, n)
	copy(padded, in)
	return padded
}

// Exec runs the behavioural model over the block-padded input into a
// fresh output the caller keeps: ExecInto with storage of its own. It is
// the host reference the card's outputs are checked against.
func (f *Function) Exec(in []byte) ([]byte, error) {
	out := make([]byte, f.OutputLen(len(in)))
	if err := f.ExecInto(out, in); err != nil {
		return nil, err
	}
	return out, nil
}

// ExecInto implements fpga.Core: it runs the behavioural model over the
// block-padded input into dst, which must hold exactly OutputLen(len(in))
// bytes. Every byte of dst is written and none is read first, so dst
// may hold anything — the card passes its output window, which still
// holds the previous output.
func (f *Function) ExecInto(dst, in []byte) error {
	if len(in) == 0 {
		return fmt.Errorf("algos: %s: empty input", f.name)
	}
	if want := f.OutputLen(len(in)); len(dst) != want {
		return fmt.Errorf("algos: %s: destination holds %d bytes, output is %d", f.name, len(dst), want)
	}
	f.run(dst, f.pad(in))
	return nil
}

// OutputLen implements fpga.Core: the output size for n input bytes.
func (f *Function) OutputLen(n int) int {
	if f.outFixed > 0 {
		return f.outFixed
	}
	return f.Blocks(n) * f.outPerBlock
}

// ExecCycles implements fpga.Core: fabric cycles for n input bytes.
func (f *Function) ExecCycles(n int) uint64 {
	return f.hwSetup + uint64(f.Blocks(n))*f.hwPerBlock
}

// SWCycles models the host-software baseline cost for n input bytes.
func (f *Function) SWCycles(n int) uint64 {
	return f.swSetup + uint64(f.swPerByte*float64(f.Blocks(n)*f.BlockBytes))
}

// Seed is the synthesis seed for the function's pseudo-netlist.
func (f *Function) Seed() uint64 { return uint64(f.id)*0x9E3779B9 + 0xA6 }

// Function identifiers. Stable: they are baked into ROM records and frame
// signatures.
const (
	IDAES128 uint16 = iota + 1
	IDDES
	IDSHA256
	IDCRC32
	IDFIR
	IDFFT
	IDMatMul
	IDGFMul
	IDModExp
	IDBitonic
	IDSHA1
	IDTDES
	IDRS255
	IDViterbi
	IDMD5
	IDModExp128
)

// Bank returns the full algorithm bank. Functions are stateless; the
// returned slice is freshly allocated but shares the singleton functions.
func Bank() []*Function {
	return []*Function{
		AES128(), DES(), SHA256(), CRC32(), FIR(),
		FFT(), MatMul(), GFMul(), ModExp(), Bitonic(),
		SHA1(), TDES(), RS255(), Viterbi(), MD5(), ModExp128(),
	}
}

// BankSize is the number of functions in the bank.
const BankSize = 16

// ByName finds a bank function by name.
func ByName(name string) (*Function, error) {
	for _, f := range Bank() {
		if f.name == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("algos: no function %q in the bank", name)
}

// byID indexes the bank by function id (ids are 1..BankSize).
var byID = func() (t [BankSize + 1]*Function) {
	for _, f := range Bank() {
		t[f.id] = f
	}
	return t
}()

// ByID finds a bank function by id without allocating: the host driver
// sizes every submitted item's outputs with it.
func ByID(id uint16) (*Function, bool) {
	if int(id) >= len(byID) || byID[id] == nil {
		return nil, false
	}
	return byID[id], true
}

// RegisterAll registers the whole bank with a fabric core registry.
func RegisterAll(reg *fpga.Registry) error {
	for _, f := range Bank() {
		if err := reg.Register(f); err != nil {
			return err
		}
	}
	return nil
}

var _ fpga.Core = (*Function)(nil)
