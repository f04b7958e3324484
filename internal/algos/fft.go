package algos

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// 64-point radix-2 decimation-in-time FFT over interleaved complex Q15
// samples (re, im as signed 16-bit little-endian). The hardware core is a
// streaming pipeline with one butterfly column per stage; fixed-point
// scaling divides by 2 at every stage so the output cannot overflow.

const fftPoints = 64

// Q14 twiddle factors, and the bit-reversed slot of each input sample.
var (
	fftTwRe, fftTwIm = fftTwiddles()
	fftRev           = fftBitReversal()
)

func fftTwiddles() (re, im [fftPoints / 2]int32) {
	for k := range re {
		ang := -2 * math.Pi * float64(k) / fftPoints
		re[k] = int32(math.Round(math.Cos(ang) * 16384))
		im[k] = int32(math.Round(math.Sin(ang) * 16384))
	}
	return re, im
}

func fftBitReversal() (rev [fftPoints]uint8) {
	for i := range rev {
		rev[i] = bits.Reverse8(uint8(i)) >> 2 // 6-bit reversal
	}
	return rev
}

// fftBlock transforms one 64-point block, already in bit-reversed order,
// in place (Q15, scaled by 1/64).
func fftBlock(re, im *[fftPoints]int32) {
	for size := 2; size <= fftPoints; size <<= 1 {
		half := size >> 1
		step := fftPoints / size
		for start := 0; start < fftPoints; start += size {
			for k := 0; k < half; k++ {
				tw := k * step
				i0, i1 := start+k, start+k+half
				// Complex multiply by the Q14 twiddle.
				tr := (re[i1]*fftTwRe[tw] - im[i1]*fftTwIm[tw]) >> 14
				ti := (re[i1]*fftTwIm[tw] + im[i1]*fftTwRe[tw]) >> 14
				// Butterfly with per-stage scaling (>>1) against overflow.
				re[i1] = (re[i0] - tr) >> 1
				im[i1] = (im[i0] - ti) >> 1
				re[i0] = (re[i0] + tr) >> 1
				im[i0] = (im[i0] + ti) >> 1
			}
		}
	}
}

func fftRun(out, in []byte) {
	const blockBytes = fftPoints * 4
	var re, im [fftPoints]int32
	for b := 0; b+blockBytes <= len(in); b += blockBytes {
		for i, r := range fftRev {
			s := binary.LittleEndian.Uint32(in[b+4*i:])
			re[r] = int32(int16(s))
			im[r] = int32(int16(s >> 16))
		}
		fftBlock(&re, &im)
		for i := range re {
			binary.LittleEndian.PutUint32(out[b+4*i:], uint32(uint16(re[i]))|uint32(uint16(im[i]))<<16)
		}
	}
}

var fftFn = &Function{
	id:          IDFFT,
	name:        "fft64",
	LUTs:        3000, // 6 butterfly stages + twiddle ROMs
	InBus:       4,    // one complex sample
	OutBus:      4,
	BlockBytes:  fftPoints * 4,
	outPerBlock: fftPoints * 4,
	hwSetup:     24, // pipeline latency
	hwPerBlock:  64, // streaming: one block every 64 cycles
	swSetup:     300,
	swPerByte:   8, // ~2k host cycles per 256-byte block
	run:         fftRun,
}

// FFT is the 64-point fixed-point FFT core.
func FFT() *Function { return fftFn }
