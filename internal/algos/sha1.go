package algos

import (
	"encoding/binary"
	"math/bits"
)

// SHA-1 from FIPS-180. Kept in the bank alongside SHA-256 because 2005
// IPSec deployments authenticated with HMAC-SHA1; the hardware core
// unrolls five rounds per cycle.

func sha1Digest(msg []byte) [20]byte {
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	var tail [128]byte
	sha1Blocks(&h, msg[:len(msg)&^63])
	sha1Blocks(&h, mdPad(&tail, msg, true))
	var out [20]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// sha1Blocks runs the compression function over each 64-byte block of p.
func sha1Blocks(h *[5]uint32, p []byte) {
	for ; len(p) >= 64; p = p[64:] {
		var w [80]uint32
		for i := 0; i < 16; i++ {
			w[i] = binary.BigEndian.Uint32(p[4*i:])
		}
		for i := 16; i < 80; i++ {
			w[i] = bits.RotateLeft32(w[i-3]^w[i-8]^w[i-14]^w[i-16], 1)
		}
		a, b, c, d, e := h[0], h[1], h[2], h[3], h[4]
		for i := 0; i < 80; i++ {
			var f, k uint32
			switch {
			case i < 20:
				f, k = b&c|^b&d, 0x5A827999
			case i < 40:
				f, k = b^c^d, 0x6ED9EBA1
			case i < 60:
				f, k = b&c|b&d|c&d, 0x8F1BBCDC
			default:
				f, k = b^c^d, 0xCA62C1D6
			}
			t := bits.RotateLeft32(a, 5) + f + e + k + w[i]
			e, d, c, b, a = d, c, bits.RotateLeft32(b, 30), a, t
		}
		h[0] += a
		h[1] += b
		h[2] += c
		h[3] += d
		h[4] += e
	}
}

var sha1Fn = &Function{
	id:         IDSHA1,
	name:       "sha1",
	LUTs:       2400, // five unrolled rounds + message schedule
	InBus:      8,
	OutBus:     4,
	BlockBytes: 64,
	outFixed:   20,
	hwSetup:    12,
	hwPerBlock: 20, // 80 rounds at five per cycle
	swSetup:    150,
	swPerByte:  12,
	run: func(out, in []byte) {
		d := sha1Digest(in)
		copy(out, d[:])
	},
}

// SHA1 is the SHA-1 digest core. Output is the 20-byte digest of the
// block-padded input.
func SHA1() *Function { return sha1Fn }
