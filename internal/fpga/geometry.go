// Package fpga simulates a partially reconfigurable FPGA in the style of
// the Xilinx Virtex-II device targeted by the paper's proof-of-concept.
//
// The simulated device is a grid of CLBs (configurable logic blocks, each
// holding four slices of two 4-input LUTs and two flip-flops) with one
// switch block per CLB. Configuration is frame-based: a frame is one full
// column of CLBs plus their switch blocks — exactly the paper's definition
// of "a prespecified number of Logic Blocks and the relevant Switch
// Blocks". Frames are the atomic unit of partial reconfiguration: writing
// one frame leaves every other frame, and any function running in them,
// untouched.
//
// Configuration data enters through a byte-wide configuration port
// (modelled on SelectMAP) that parses a packetised bitstream: a sync word
// followed by type-1 register writes addressing the frame address register
// (FAR), frame data input register (FDRI), command register (CMD) and a
// running CRC. The packet format is defined in this package because the
// port must parse it; the assembler that produces bitstreams lives in
// package bitstream.
//
// Functions configured into frames are executed behaviourally: the first
// CLB of every frame carries a signature identifying the function, and
// activating a frame set binds it to a Core — a Go model of the configured
// logic registered in a Registry — which supplies both the input/output
// behaviour and the fabric cycle cost.
package fpga

import "fmt"

// Per-CLB configuration layout within a frame, in bytes.
const (
	// SlicesPerCLB is the number of slices in one CLB (Virtex-II).
	SlicesPerCLB = 4
	// LUTsPerSlice is the number of 4-input LUTs per slice.
	LUTsPerSlice = 2
	// LUTBytes is the storage for one LUT's 16-bit init vector.
	LUTBytes = 2
	// CLBLUTBytes is the LUT configuration storage of one CLB.
	CLBLUTBytes = SlicesPerCLB * LUTsPerSlice * LUTBytes
	// CLBFlagBytes holds the flip-flop usage / mode flags of one CLB.
	CLBFlagBytes = 1
	// SwitchBytes holds the programmable-interconnect-point bitmap of the
	// switch block attached to one CLB.
	SwitchBytes = 4
	// CLBBytes is the total configuration footprint of one CLB row within
	// a frame: LUT inits, flag byte, switch block.
	CLBBytes = CLBLUTBytes + CLBFlagBytes + SwitchBytes
)

// Geometry describes the fabric dimensions. Frames are columns: the device
// has Cols frames of Rows CLBs each.
type Geometry struct {
	Rows int // CLBs per column (per frame)
	Cols int // columns = number of frames
}

// DefaultGeometry is a medium Virtex-II-class device: 48 frames of 32
// CLBs, 32 KiB of configuration memory.
var DefaultGeometry = Geometry{Rows: 32, Cols: 48}

// Validate reports an error if the geometry is degenerate.
func (g Geometry) Validate() error {
	if g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("fpga: invalid geometry %dx%d", g.Rows, g.Cols)
	}
	if g.Rows < 2 {
		return fmt.Errorf("fpga: geometry needs at least 2 rows for the frame signature, got %d", g.Rows)
	}
	return nil
}

// FrameBytes reports the configuration size of one frame.
func (g Geometry) FrameBytes() int { return g.Rows * CLBBytes }

// FrameWords reports the configuration size of one frame in 32-bit words.
// FrameBytes is always a multiple of 4 only when Rows*CLBBytes is; the
// port pads the final word, so FrameWords rounds up.
func (g Geometry) FrameWords() int { return (g.FrameBytes() + 3) / 4 }

// NumFrames reports the number of frames (columns) on the device.
func (g Geometry) NumFrames() int { return g.Cols }

// LUTsPerFrame reports how many LUTs one frame provides, excluding the
// signature CLB (CLB row 0), which is reserved.
func (g Geometry) LUTsPerFrame() int {
	return (g.Rows - 1) * SlicesPerCLB * LUTsPerSlice
}

// FramesForLUTs reports how many frames a function needing n usable LUTs
// occupies on this geometry, rounding up. A function always occupies at
// least one frame.
func (g Geometry) FramesForLUTs(n int) int {
	per := g.LUTsPerFrame()
	if n <= 0 {
		return 1
	}
	return (n + per - 1) / per
}

func (g Geometry) String() string {
	return fmt.Sprintf("%d×%d CLBs, %d frames × %d B", g.Rows, g.Cols, g.NumFrames(), g.FrameBytes())
}
