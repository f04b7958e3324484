package algos

import "encoding/binary"

// 16-tap FIR low-pass filter over signed 16-bit little-endian samples in
// Q15 fixed point. The hardware core is a fully unrolled transposed-form
// MAC chain producing one sample per cycle; the software baseline does 16
// multiply-accumulates per sample.

// firCoeff is a 16-tap symmetric low-pass kernel in Q15.
var firCoeff = [16]int32{
	-120, -340, -510, -120, 1320, 3680, 6380, 8140,
	8140, 6380, 3680, 1320, -120, -510, -340, -120,
}

func firFilter(out, in []byte) {
	n := len(in) / 2
	// The first 15 outputs see the zero initial state: their windows
	// start in a 30-byte zero head ahead of the first 15 samples.
	var head [60]byte
	copy(head[30:], in)
	for i := 0; i < min(n, 15); i++ {
		binary.LittleEndian.PutUint16(out[2*i:], firTap((*[32]byte)(head[2*i:])))
	}
	for i := 15; i < n; i++ {
		binary.LittleEndian.PutUint16(out[2*i:], firTap((*[32]byte)(in[2*i-30:])))
	}
}

// firTap is one output sample: the Q15 dot product of the taps with the
// 16-sample window w (oldest first), renormalised and saturated. The
// taps are symmetric, so the two samples that share a tap are added
// first — 8 multiplies. |acc| stays below 2^31: the taps' absolute sum
// is 41220 and a sample is at most 2^15.
func firTap(w *[32]byte) uint16 {
	s := func(k int) int32 { return int32(int16(binary.LittleEndian.Uint16(w[2*k:]))) }
	acc := (s(0)+s(15))*firCoeff[0] + (s(1)+s(14))*firCoeff[1] +
		(s(2)+s(13))*firCoeff[2] + (s(3)+s(12))*firCoeff[3] +
		(s(4)+s(11))*firCoeff[4] + (s(5)+s(10))*firCoeff[5] +
		(s(6)+s(9))*firCoeff[6] + (s(7)+s(8))*firCoeff[7]
	y := acc >> 15 // Q15 renormalisation
	if y > 32767 {
		y = 32767
	} else if y < -32768 {
		y = -32768
	}
	return uint16(int16(y))
}

var firFn = &Function{
	id:          IDFIR,
	name:        "fir16",
	LUTs:        1000, // 16 MACs + delay line
	InBus:       2,
	OutBus:      2,
	BlockBytes:  2, // one sample
	outPerBlock: 2,
	hwSetup:     16, // pipeline depth
	hwPerBlock:  1,  // one sample per cycle
	swSetup:     100,
	swPerByte:   12, // ~24 host cycles per sample (16 MACs + loads)
	run:         firFilter,
}

// FIR is the 16-tap Q15 FIR filter core.
func FIR() *Function { return firFn }
