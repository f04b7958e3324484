// Package bitstream produces configuration bitstreams for the simulated
// fabric: a packet builder, a pseudo-netlist synthesizer that turns a
// function's resource demand into frame images, and an assembler for the
// module-based (per-frame) partial reconfiguration flow described in
// Xilinx XAPP290, which the paper cites for its proof-of-concept.
//
// The wire format (sync word, type-1 register writes, CRC) is defined by
// package fpga, whose configuration port parses it; this package is the
// producer side.
package bitstream

import (
	"encoding/binary"
	"fmt"
	"slices"

	"agilefpga/internal/fpga"
	"agilefpga/internal/sim"
)

// Builder assembles a bitstream in the big-endian byte order the byte-wide
// port consumes, tracking the running CRC exactly as the configuration
// port will compute it.
type Builder struct {
	buf     []byte
	crc     uint32
	scratch []byte         // CRCUpdateBurst scratch, kept across writes
	shift   *fpga.CRCShift // folds one frame's FDRI key, built on first use
}

func (b *Builder) prime() {
	b.Raw(fpga.DummyWord)
	b.Raw(fpga.SyncWord)
}

// Reset empties the builder, keeping its buffers.
func (b *Builder) Reset() {
	b.buf = b.buf[:0]
	b.crc = 0
}

// Raw appends a word without packet framing or CRC accounting.
func (b *Builder) Raw(w uint32) { b.buf = binary.BigEndian.AppendUint32(b.buf, w) }

// WriteReg appends a type-1 write of vals to reg.
func (b *Builder) WriteReg(reg int, vals ...uint32) {
	b.Raw(fpga.MakeType1(fpga.OpWrite, reg, len(vals)))
	start := len(b.buf)
	for _, v := range vals {
		b.Raw(v)
	}
	if reg != fpga.RegCRC {
		b.crc = fpga.CRCUpdateBurst(b.crc, reg, b.buf[start:], &b.scratch)
	}
}

// WriteFrame appends one FDRI packet carrying a frame image, zero-padding
// the final word if the frame size is not word-aligned.
func (b *Builder) WriteFrame(g fpga.Geometry, image []byte) error {
	start := len(b.buf) + 4
	if err := b.frame(g, image); err != nil {
		return err
	}
	b.crc = fpga.CRCUpdateBurst(b.crc, fpga.RegFDRI, b.buf[start:], &b.scratch)
	return nil
}

// frame appends an FDRI packet without CRC accounting: the header word,
// the image, and the zero pad of the final word.
func (b *Builder) frame(g fpga.Geometry, image []byte) error {
	if len(image) != g.FrameBytes() {
		return fmt.Errorf("bitstream: frame image is %d bytes, geometry wants %d", len(image), g.FrameBytes())
	}
	b.Raw(fpga.MakeType1(fpga.OpWrite, fpga.RegFDRI, g.FrameWords()))
	b.buf = append(b.buf, image...)
	b.buf = append(b.buf, make([]byte, 4*g.FrameWords()-len(image))...)
	return nil
}

// Command writes cmd to the command register, mirroring the port's CRC
// reset on RCRC.
func (b *Builder) Command(cmd uint32) {
	b.WriteReg(fpga.RegCMD, cmd)
	if cmd == fpga.CmdRCRC {
		b.crc = 0
	}
}

// WriteCRC appends a CRC check packet carrying the running CRC, then
// resets it (the port does the same on a successful match).
func (b *Builder) WriteCRC() {
	b.WriteReg(fpga.RegCRC, b.crc)
	b.crc = 0
}

// maxFDRIWords is the largest payload a single type-1 packet can carry
// (11-bit word count).
const maxFDRIWords = 0x7FF

// Assemble builds a module-based partial bitstream that loads images[i]
// into frame frames[i]. The stream carries the full handshake the port
// demands: CRC reset, IDCODE check, frame-length check, WCFG, one
// FAR+FDRI pair per frame, LFRM, a CRC check, and DESYNC.
func Assemble(g fpga.Geometry, idcode uint32, frames []int, images [][]byte) ([]byte, error) {
	return new(Builder).AppendAssemble(g, idcode, frames, images, nil)
}

// AppendAssemble appends the session Assemble builds to the builder and
// returns the builder's bytes; callers that keep a Builder across loads
// Reset it first. keys, when non-nil, holds each image's FrameKey, and
// each frame is folded into the running CRC in O(1) instead of summed
// over its bytes. The stream is byte-identical either way.
func (b *Builder) AppendAssemble(g fpga.Geometry, idcode uint32, frames []int, images [][]byte, keys []uint32) ([]byte, error) {
	if len(frames) != len(images) {
		return nil, fmt.Errorf("bitstream: %d frames but %d images", len(frames), len(images))
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("bitstream: empty frame set")
	}
	if g.FrameWords() > maxFDRIWords {
		return nil, fmt.Errorf("bitstream: frame of %d words exceeds the %d-word FDRI packet limit", g.FrameWords(), maxFDRIWords)
	}
	if keys != nil {
		if len(keys) != len(frames) {
			return nil, fmt.Errorf("bitstream: %d frame keys for %d frames", len(keys), len(frames))
		}
		if b.shift == nil || b.shift.Words() != g.FrameWords() {
			b.shift = fpga.NewCRCShift(g.FrameWords())
		}
	}
	// 16 words of handshake around 3 words of headers and FAR per frame.
	b.buf = slices.Grow(b.buf, 4*(16+len(frames)*(3+g.FrameWords())))
	b.prime()
	b.Command(fpga.CmdRCRC)
	b.WriteReg(fpga.RegIDCODE, idcode)
	b.WriteReg(fpga.RegFLR, uint32(g.FrameWords()))
	b.Command(fpga.CmdWCFG)
	for i, fi := range frames {
		if fi < 0 || fi >= g.NumFrames() {
			return nil, fmt.Errorf("bitstream: frame %d out of range (device has %d)", fi, g.NumFrames())
		}
		b.WriteReg(fpga.RegFAR, uint32(fi))
		if keys == nil {
			if err := b.WriteFrame(g, images[i]); err != nil {
				return nil, err
			}
			continue
		}
		if err := b.frame(g, images[i]); err != nil {
			return nil, err
		}
		b.crc = b.shift.Fold(b.crc, keys[i])
	}
	b.Command(fpga.CmdLFRM)
	b.WriteCRC()
	b.Command(fpga.CmdDESYNC)
	return b.buf, nil
}

// FrameKey returns the key AppendAssemble folds for a frame image:
// fpga.CRCBurstKey of its FDRI payload, the image zero-padded to whole
// words. scratch is the caller's CRC scratch.
func FrameKey(image []byte, scratch *[]byte) uint32 {
	if len(image)%4 != 0 {
		image = append(image[:len(image):len(image)], make([]byte, 4-len(image)%4)...)
	}
	return fpga.CRCBurstKey(fpga.RegFDRI, image, scratch)
}

// Netlist is a pseudo-netlist: the resource demand and statistical shape
// of a function's logic, sufficient to synthesise deterministic frame
// images with realistic configuration-bit statistics.
type Netlist struct {
	FnID   uint16
	Serial uint16
	// LUTs is the usable-LUT demand of the function. The frame count is
	// derived from it and the geometry.
	LUTs int
	// Seed perturbs the synthesised bit patterns; functions synthesised
	// with different seeds get different logic.
	Seed uint64
}

// lutDictionary holds truth tables that dominate real designs: wide
// AND/OR/XOR reductions, muxes, carry logic, pass-throughs. Synthesised
// LUTs draw from it with heavy reuse, which is what makes real bitstreams
// compressible.
var lutDictionary = []uint16{
	0x8000, // AND4
	0xFFFE, // OR4
	0x6996, // XOR4 (parity)
	0xCACA, // 2:1 mux on inputs a,b select c
	0xAAAA, // pass-through input a
	0xCCCC, // pass-through input b
	0xF0F0, // pass-through input c
	0xFF00, // pass-through input d
	0xE8E8, // majority/carry
	0x9669, // XNOR parity
	0x7888, // AND-OR blend
	0x0660, // decode pattern
}

// Synthesize produces the frame images of a function: FramesForLUTs(LUTs)
// frames, each carrying a valid signature in its first CLB and
// dictionary-patterned logic for its share of the LUT demand. Images are
// deterministic in the netlist fields.
//
// Frames of one function share a common base pattern with small per-frame
// mutations, mirroring the column-to-column symmetry of real placed
// designs (datapaths replicate the same slice configuration across
// columns). This symmetry is exactly what the framediff codec — the
// paper's §4 open problem — is built to exploit.
func Synthesize(g fpga.Geometry, n Netlist) ([][]byte, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if n.LUTs < 0 {
		return nil, fmt.Errorf("bitstream: negative LUT demand %d", n.LUTs)
	}
	count := g.FramesForLUTs(n.LUTs)
	if count > g.NumFrames() {
		return nil, fmt.Errorf("bitstream: function %d needs %d frames, device has %d", n.FnID, count, g.NumFrames())
	}

	// Base pattern for a full frame's worth of logic, shared by every
	// frame of the function.
	per := g.LUTsPerFrame()
	baseRNG := sim.NewRNG(n.Seed ^ uint64(n.FnID)<<32 ^ 0xBA5E)
	baseLUT := make([]uint16, per)
	for i := range baseLUT {
		// 7 in 8 LUTs come from the dictionary; the rest are "random
		// logic" truth tables (re-rolled if zero, so used==demanded).
		if baseRNG.Intn(8) < 7 {
			baseLUT[i] = lutDictionary[baseRNG.Intn(len(lutDictionary))]
		} else {
			for baseLUT[i] == 0 {
				baseLUT[i] = uint16(baseRNG.Uint64())
			}
		}
	}
	baseSwitch := make([]uint32, g.Rows)
	for i := range baseSwitch {
		// Sparse routing: roughly a quarter of the PIPs in active rows.
		baseSwitch[i] = uint32(baseRNG.Uint64()) & uint32(baseRNG.Uint64())
	}

	images := make([][]byte, count)
	remaining := n.LUTs
	for idx := 0; idx < count; idx++ {
		use := remaining
		if use > per {
			use = per
		}
		remaining -= use
		images[idx] = synthFrame(g, n, idx, count, use, baseLUT, baseSwitch)
	}
	return images, nil
}

// mutateOneIn is the per-frame LUT mutation rate: one in this many base
// LUTs is re-rolled per frame, so frames are similar but not identical.
const mutateOneIn = 16

// synthFrame builds one frame image: signature CLB first, then Rows-1
// logic CLBs filling `use` LUTs sequentially from the shared base pattern.
func synthFrame(g fpga.Geometry, n Netlist, idx, total, use int, baseLUT []uint16, baseSwitch []uint32) []byte {
	img := make([]byte, g.FrameBytes())
	rng := sim.NewRNG(n.Seed ^ uint64(n.FnID)<<32 ^ uint64(idx)<<16 ^ uint64(n.Serial))
	slot := 0
	for row := 1; row < g.Rows; row++ {
		var clb fpga.CLB
		usedInCLB := 0
		for s := range clb.Slices {
			for l := range clb.Slices[s].LUTs {
				if slot >= use {
					slot++
					continue
				}
				init := baseLUT[slot]
				if rng.Intn(mutateOneIn) == 0 {
					init = lutDictionary[rng.Intn(len(lutDictionary))]
				}
				clb.Slices[s].LUTs[l].Init = init
				usedInCLB++
				slot++
			}
		}
		if usedInCLB > 0 {
			// Flip-flop flags: one bit per used LUT, capped at 8 bits.
			clb.Flags = byte(1<<uint(min(usedInCLB, 8)) - 1)
			clb.Switch = baseSwitch[row]
		}
		fpga.EncodeCLB(img[row*fpga.CLBBytes:], &clb)
	}
	fpga.EncodeSignature(img, fpga.Signature{
		FnID:   n.FnID,
		Index:  uint16(idx),
		Total:  uint16(total),
		Serial: n.Serial,
	})
	return img
}
