package algos

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// MD5 from RFC 1321. Obsolete for security but ubiquitous in 2005
// checksumming pipelines, and its round structure (64 rounds, one per
// cycle) maps neatly onto fabric. The sine-derived constant table is
// computed at init rather than typed in.

var (
	md5Once sync.Once
	md5K    [64]uint32
)

var md5Shift = [64]uint{
	7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
	5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
	4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
	6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
}

func md5Init() {
	// K[i] = floor(2^32 × |sin(i+1)|), via a small Taylor sine — no math
	// import needed and bit-exact for these arguments after rounding.
	for i := range md5K {
		md5K[i] = uint32(absSin(float64(i+1)) * 4294967296.0)
	}
}

// absSin computes |sin(x)| with range reduction and a 10-term Taylor
// series — absolute error below 1e-14 on the reduced range, far tighter
// than the 2^-32 rounding granularity of the constant table (verified
// bit-exact against crypto/md5 in the tests).
func absSin(x float64) float64 {
	const pi = 3.14159265358979323846
	const twoPi = 2 * pi
	for x >= twoPi {
		x -= twoPi
	}
	if x > pi {
		x -= pi
	}
	return sinTaylor(x)
}

func sinTaylor(x float64) float64 {
	const pi = 3.14159265358979323846
	// Reduce to [0, pi/2] using symmetry.
	if x > pi/2 {
		x = pi - x
	}
	x2 := x * x
	s := x * (1 - x2/6*(1-x2/20*(1-x2/42*(1-x2/72*(1-x2/110*(1-x2/156*(1-x2/210*(1-x2/272*(1-x2/342)))))))))
	if s < 0 {
		return -s
	}
	return s
}

func md5Digest(msg []byte) [16]byte {
	md5Once.Do(md5Init)
	h := [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	var tail [128]byte
	md5Blocks(&h, msg[:len(msg)&^63])
	md5Blocks(&h, mdPad(&tail, msg, false))
	var out [16]byte
	for i, v := range h {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// md5Blocks runs the compression function over each 64-byte block of p.
func md5Blocks(h *[4]uint32, p []byte) {
	for ; len(p) >= 64; p = p[64:] {
		var m [16]uint32
		for i := 0; i < 16; i++ {
			m[i] = binary.LittleEndian.Uint32(p[4*i:])
		}
		a, b, c, d := h[0], h[1], h[2], h[3]
		for i := 0; i < 64; i++ {
			var f uint32
			var g int
			switch {
			case i < 16:
				f, g = b&c|^b&d, i
			case i < 32:
				f, g = d&b|^d&c, (5*i+1)%16
			case i < 48:
				f, g = b^c^d, (3*i+5)%16
			default:
				f, g = c^(b|^d), (7*i)%16
			}
			f += a + md5K[i] + m[g]
			a, d, c, b = d, c, b, b+bits.RotateLeft32(f, int(md5Shift[i]))
		}
		h[0] += a
		h[1] += b
		h[2] += c
		h[3] += d
	}
}

var md5Fn = &Function{
	id:         IDMD5,
	name:       "md5",
	LUTs:       1600, // 64-round datapath, lighter than the SHAs
	InBus:      8,
	OutBus:     4,
	BlockBytes: 64,
	outFixed:   16,
	hwSetup:    12,
	hwPerBlock: 66, // one round per cycle
	swSetup:    120,
	swPerByte:  8, // MD5 was designed to be fast in software
	run: func(out, in []byte) {
		d := md5Digest(in)
		copy(out, d[:])
	},
}

// MD5 is the MD5 digest core. Output is the 16-byte digest of the
// block-padded input.
func MD5() *Function { return md5Fn }
