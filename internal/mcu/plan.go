package mcu

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"agilefpga/internal/bitstream"
	"agilefpga/internal/compress"
	"agilefpga/internal/memory"
)

// A load plan is one ROM record decoded once, when it enters the ROM
// (Download, or New booting from a ROM image). The ROM is immutable
// after that, so everything a cold load derives from the compressed
// blob — the frame images, the InputConsumed() mark of every
// decompression window, the stage totals, each frame's CRC key — is the
// same on every load of the record. A load replays the plan through the
// same cost model instead of running the decoder again: what the model
// charges, the host does not repeat (DESIGN §12).

// loadPlan is a decoded ROM record.
type loadPlan struct {
	// images are the frame images, views into one decoded buffer. They
	// are read-only: the assembler copies them into the port stream.
	images [][]byte
	// keys are the images' FDRI CRC keys (bitstream.FrameKey).
	keys []uint32
	// wins are the decompression windows of a load, in order.
	wins []winMark
	// rawBytes is the decoded length, romCycles the ROM stage's total
	// (the whole blob), decompCycles the decompressor's.
	rawBytes                int
	romCycles, decompCycles uint64
	cyclesPerByte           float64
	codec                   string
}

// winMark is one decompression window of a load: the cumulative output
// and the cumulative ROM bytes the decoder had pulled when it closed.
type winMark struct{ out, consumed int }

// newPlan decodes rec's blob window by window, exactly as the
// configuration module streams it, and checks that it holds the
// record's frames. A blob that fails here never enters the ROM.
func (c *Controller) newPlan(rec memory.Record, blob []byte) (*loadPlan, error) {
	fb := c.cfg.Geometry.FrameBytes()
	codec, err := compress.ByID(rec.CodecID, fb)
	if err != nil {
		return nil, err
	}
	reader, err := codec.NewReader(blob)
	if err != nil {
		return nil, fmt.Errorf("mcu: bitstream of %q: %w", rec.Name, err)
	}
	consumer, _ := reader.(compress.InputReporter)

	// Each window is read straight into the decoded buffer; a reader
	// fills at most WindowBytes per read, as the module's buffer allows.
	win, want := c.cfg.WindowBytes, int(rec.FrameCount)*fb
	raw := make([]byte, 0, want)
	var wins []winMark
	for len(raw) <= want { // a blob that expands past its record stops here
		raw = slices.Grow(raw, win)
		n, rerr := reader.Read(raw[len(raw) : len(raw)+win])
		if n > 0 {
			raw = raw[:len(raw)+n]
			consumed := len(blob)
			if consumer != nil {
				consumed = min(consumer.InputConsumed(), len(blob))
			}
			wins = append(wins, winMark{out: len(raw), consumed: consumed})
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("mcu: decompressing %q: %w", rec.Name, rerr)
		}
	}
	switch {
	case len(raw) > want:
		return nil, fmt.Errorf("mcu: bitstream of %q decodes past the %d frames its record says", rec.Name, rec.FrameCount)
	case len(raw)%fb != 0:
		return nil, fmt.Errorf("mcu: bitstream of %q is not frame-aligned (%d trailing bytes)", rec.Name, len(raw)%fb)
	case len(raw) != want:
		return nil, fmt.Errorf("mcu: bitstream of %q holds %d frames, record says %d", rec.Name, len(raw)/fb, rec.FrameCount)
	}

	p := &loadPlan{
		wins:          wins,
		rawBytes:      len(raw),
		romCycles:     memory.ReadCycles(len(blob)),
		decompCycles:  uint64(float64(len(raw))*codec.CyclesPerByte()) + 1,
		cyclesPerByte: codec.CyclesPerByte(),
		codec:         codec.Name(),
	}
	var scratch []byte
	for off := 0; off < len(raw); off += fb {
		img := raw[off : off+fb : off+fb]
		p.images = append(p.images, img)
		p.keys = append(p.keys, bitstream.FrameKey(img, &scratch))
	}
	return p, nil
}
