package algos

import "sync"

// RS(255,223) systematic Reed-Solomon encoder over GF(2⁸) with the CCSDS
// field polynomial x⁸+x⁴+x³+x²+1 (0x11D) — the deep-space/storage FEC
// workhorse, and a textbook FPGA kernel: the LFSR encoder is 32 GF
// multipliers in a shift chain, one input byte per cycle.
//
// Each 223-byte input block yields a 255-byte codeword (data followed by
// 32 parity bytes). Decoding is out of scope; the syndrome property
// (codeword evaluates to zero at the generator roots) is verified in the
// tests.

const (
	rsN      = 255
	rsK      = 223
	rsParity = rsN - rsK // 32
	rsPoly   = 0x11D
)

var (
	rsOnce sync.Once
	rsExp  [512]byte // α^i, doubled to skip modulo in products
	rsLog  [256]byte
	rsGen  [rsParity + 1]byte // generator polynomial, degree 32, monic
)

func rsInit() {
	x := 1
	for i := 0; i < 255; i++ {
		rsExp[i] = byte(x)
		rsLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= rsPoly
		}
	}
	for i := 255; i < 512; i++ {
		rsExp[i] = rsExp[i-255]
	}
	// g(x) = Π_{i=0..31} (x - α^i)
	rsGen[0] = 1
	for root := 0; root < rsParity; root++ {
		alpha := rsExp[root]
		// Multiply the running polynomial by (x + α^root); work from the
		// high coefficient down so each term is used before overwrite.
		for j := root + 1; j > 0; j-- {
			rsGen[j] = rsGen[j-1] ^ rsMul(rsGen[j], alpha)
		}
		rsGen[0] = rsMul(rsGen[0], alpha)
	}
}

// rsMul multiplies in GF(2⁸) mod 0x11D.
func rsMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return rsExp[int(rsLog[a])+int(rsLog[b])]
}

// rsEncodeBlock appends the 32 parity bytes of a 223-byte data block.
func rsEncodeBlock(dst, data []byte) {
	copy(dst, data[:rsK])
	parity := dst[rsK : rsK+rsParity]
	for i := range parity {
		parity[i] = 0
	}
	// Systematic LFSR division by g(x).
	for _, d := range data[:rsK] {
		fb := d ^ parity[0]
		copy(parity, parity[1:])
		parity[rsParity-1] = 0
		if fb != 0 {
			for j := 0; j < rsParity; j++ {
				// g is monic of degree 32; coefficient of x^(31-j).
				parity[j] ^= rsMul(fb, rsGen[rsParity-1-j])
			}
		}
	}
}

var rsFn = &Function{
	id:          IDRS255,
	name:        "rs255",
	LUTs:        2000, // 32 constant GF multipliers + parity register chain
	InBus:       1,
	OutBus:      1,
	BlockBytes:  rsK,
	outPerBlock: rsN,
	hwSetup:     8,
	hwPerBlock:  255, // one byte per cycle plus the 32-cycle parity flush
	swSetup:     200,
	swPerByte:   120, // 32 GF multiply-accumulates per input byte
	run: func(out, in []byte) {
		rsOnce.Do(rsInit)
		for b := 0; b < len(in)/rsK; b++ {
			rsEncodeBlock(out[b*rsN:], in[b*rsK:])
		}
	},
}

// RS255 is the RS(255,223) systematic encoder core.
func RS255() *Function { return rsFn }
