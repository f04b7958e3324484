package compress

import (
	"crypto/subtle"
	"encoding/binary"
	"io"
)

// frameDiffCodec is the paper's §4 open problem made concrete: it exploits
// the symmetry between configuration frames. Each byte at offset i >=
// frameBytes is XORed with the byte one frame earlier; frames that repeat
// the previous frame's CLB patterns (the common case inside one function's
// column span) collapse to zero runs, which the inner RLE stage then
// crushes. The first frame passes through unchanged.
//
// Stream layout: uint16 LE frame size, then an RLE stream of the
// differenced bytes.
type frameDiffCodec struct {
	frameBytes int
}

func (frameDiffCodec) Name() string           { return "framediff" }
func (frameDiffCodec) CyclesPerByte() float64 { return 1.25 }

func (c frameDiffCodec) Compress(src []byte) ([]byte, error) {
	diff := make([]byte, len(src))
	for i := range src {
		if i >= c.frameBytes {
			diff[i] = src[i] ^ src[i-c.frameBytes]
		} else {
			diff[i] = src[i]
		}
	}
	inner, err := rleCodec{}.Compress(diff)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 2, 2+len(inner))
	binary.LittleEndian.PutUint16(out, uint16(c.frameBytes))
	return append(out, inner...), nil
}

func (c frameDiffCodec) Decompress(comp []byte) ([]byte, error) {
	return decompressAll(c, comp)
}

func (c frameDiffCodec) NewReader(comp []byte) (io.Reader, error) {
	if len(comp) < 2 {
		return nil, ErrCorrupt
	}
	fb := int(binary.LittleEndian.Uint16(comp))
	if fb != c.frameBytes {
		return nil, ErrCorrupt
	}
	inner, err := rleCodec{}.NewReader(comp[2:])
	if err != nil {
		return nil, err
	}
	return &frameDiffReader{inner: inner, hist: make([]byte, fb)}, nil
}

// frameDiffReader integrates the XOR prediction incrementally, keeping one
// frame of history.
type frameDiffReader struct {
	inner io.Reader
	hist  []byte // ring: the last frame of produced output
	pos   int    // ring offset of the next output byte
	full  bool   // the first frame has passed: hist predicts from here on
}

// InputConsumed reports the frame-size header plus whatever the inner
// RLE reader has consumed.
func (r *frameDiffReader) InputConsumed() int {
	if ir, ok := r.inner.(InputReporter); ok {
		return 2 + ir.InputConsumed()
	}
	return 2
}

func (r *frameDiffReader) Read(p []byte) (int, error) {
	n, err := r.inner.Read(p)
	for out := p[:n]; len(out) > 0; {
		// One contiguous stretch of the ring at a time.
		seg := out[:min(len(out), len(r.hist)-r.pos)]
		h := r.hist[r.pos : r.pos+len(seg)]
		if r.full {
			subtle.XORBytes(seg, seg, h)
		}
		copy(h, seg)
		out = out[len(seg):]
		if r.pos += len(seg); r.pos == len(r.hist) {
			r.pos, r.full = 0, true
		}
	}
	return n, err
}
