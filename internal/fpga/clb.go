package fpga

import (
	"encoding/binary"

	"agilefpga/internal/crc16"
)

// LUT is one 4-input look-up table: a 16-bit truth table.
type LUT struct {
	Init uint16
}

// Slice groups two LUTs and their flip-flops (Virtex-II slice).
type Slice struct {
	LUTs [LUTsPerSlice]LUT
}

// CLB is one configurable logic block: four slices, a flag byte recording
// flip-flop usage and slice modes, and the switch block routing bitmap of
// the adjacent switch matrix.
type CLB struct {
	Slices [SlicesPerCLB]Slice
	Flags  byte
	Switch uint32
}

// EncodeCLB serialises the CLB into dst, which must be at least CLBBytes
// long, and returns the number of bytes written.
func EncodeCLB(dst []byte, c *CLB) int {
	_ = dst[CLBBytes-1]
	off := 0
	for s := range c.Slices {
		for l := range c.Slices[s].LUTs {
			binary.LittleEndian.PutUint16(dst[off:], c.Slices[s].LUTs[l].Init)
			off += LUTBytes
		}
	}
	dst[off] = c.Flags
	off++
	binary.LittleEndian.PutUint32(dst[off:], c.Switch)
	return off + SwitchBytes
}

// Frame signature layout. The first CLB of every configured frame carries
// a 12-byte signature in its LUT-init area identifying the function that
// owns the frame; an empty (all-zero) frame has no signature. Activation
// reads these signatures back from configuration memory, so a function can
// only run if its bits actually made it into the fabric intact.
const (
	sigMagic = 0xC0DE

	sigOffMagic  = 0 // uint16: sigMagic
	sigOffFnID   = 2 // uint16: function identifier
	sigOffIndex  = 4 // uint16: frame index within the function (0-based)
	sigOffTotal  = 6 // uint16: total frames of the function
	sigOffSerial = 8 // uint16: bitstream serial (build generation)
	sigOffCRC    = 10
	// SigBytes is the size of the frame signature.
	SigBytes = 12
)

// Signature identifies the function configured into a frame.
type Signature struct {
	FnID   uint16
	Index  uint16 // frame index within the function's frame set
	Total  uint16 // total frames the function occupies
	Serial uint16 // bitstream build serial, for staleness checks
}

// EncodeSignature writes sig into the first SigBytes of a frame image.
func EncodeSignature(frame []byte, sig Signature) {
	_ = frame[SigBytes-1]
	binary.LittleEndian.PutUint16(frame[sigOffMagic:], sigMagic)
	binary.LittleEndian.PutUint16(frame[sigOffFnID:], sig.FnID)
	binary.LittleEndian.PutUint16(frame[sigOffIndex:], sig.Index)
	binary.LittleEndian.PutUint16(frame[sigOffTotal:], sig.Total)
	binary.LittleEndian.PutUint16(frame[sigOffSerial:], sig.Serial)
	binary.LittleEndian.PutUint16(frame[sigOffCRC:], crc16.Checksum(frame[:sigOffCRC]))
}

// DecodeSignature reads the frame signature. ok is false for an empty or
// corrupted frame (bad magic or bad signature CRC).
func DecodeSignature(frame []byte) (sig Signature, ok bool) {
	if len(frame) < SigBytes {
		return Signature{}, false
	}
	if binary.LittleEndian.Uint16(frame[sigOffMagic:]) != sigMagic {
		return Signature{}, false
	}
	if binary.LittleEndian.Uint16(frame[sigOffCRC:]) != crc16.Checksum(frame[:sigOffCRC]) {
		return Signature{}, false
	}
	sig.FnID = binary.LittleEndian.Uint16(frame[sigOffFnID:])
	sig.Index = binary.LittleEndian.Uint16(frame[sigOffIndex:])
	sig.Total = binary.LittleEndian.Uint16(frame[sigOffTotal:])
	sig.Serial = binary.LittleEndian.Uint16(frame[sigOffSerial:])
	return sig, true
}
