package algos

import (
	"encoding/binary"
	"math/bits"
)

// SHA-256 from FIPS-180. One digest per input (the whole padded input is
// one message); the hardware core iterates the 64-round compression at
// one round per cycle.

var sha256K = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

func sha256Digest(msg []byte) [32]byte {
	h := [8]uint32{
		0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
		0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
	}
	var tail [128]byte
	sha256Blocks(&h, msg[:len(msg)&^63])
	sha256Blocks(&h, mdPad(&tail, msg, true))
	var out [32]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// sha256Blocks runs the compression function over each 64-byte block of p.
func sha256Blocks(h *[8]uint32, p []byte) {
	for ; len(p) >= 64; p = p[64:] {
		var w [64]uint32
		for i := 0; i < 16; i++ {
			w[i] = binary.BigEndian.Uint32(p[4*i:])
		}
		for i := 16; i < 64; i++ {
			s0 := bits.RotateLeft32(w[i-15], -7) ^ bits.RotateLeft32(w[i-15], -18) ^ w[i-15]>>3
			s1 := bits.RotateLeft32(w[i-2], -17) ^ bits.RotateLeft32(w[i-2], -19) ^ w[i-2]>>10
			w[i] = w[i-16] + s0 + w[i-7] + s1
		}
		a, b, c, d, e, f, g, hh := h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]
		for i := 0; i < 64; i++ {
			S1 := bits.RotateLeft32(e, -6) ^ bits.RotateLeft32(e, -11) ^ bits.RotateLeft32(e, -25)
			ch := e&f ^ ^e&g
			t1 := hh + S1 + ch + sha256K[i] + w[i]
			S0 := bits.RotateLeft32(a, -2) ^ bits.RotateLeft32(a, -13) ^ bits.RotateLeft32(a, -22)
			maj := a&b ^ a&c ^ b&c
			t2 := S0 + maj
			hh, g, f, e, d, c, b, a = g, f, e, d+t1, c, b, a, t1+t2
		}
		h[0] += a
		h[1] += b
		h[2] += c
		h[3] += d
		h[4] += e
		h[5] += f
		h[6] += g
		h[7] += hh
	}
}

// mdPad writes the Merkle–Damgård padding of msg into tail: the bytes
// after msg's last whole 64-byte block, 0x80, zeros, and the 64-bit bit
// length, big-endian or (MD5) little-endian. It returns the one or two
// final blocks; the whole blocks before them are compressed straight
// from msg.
func mdPad(tail *[128]byte, msg []byte, bigEndian bool) []byte {
	r := copy(tail[:], msg[len(msg)&^63:])
	tail[r] = 0x80
	n := 64
	if r >= 56 {
		n = 128
	}
	if bitLen := uint64(len(msg)) * 8; bigEndian {
		binary.BigEndian.PutUint64(tail[n-8:], bitLen)
	} else {
		binary.LittleEndian.PutUint64(tail[n-8:], bitLen)
	}
	return tail[:n]
}

var sha256Fn = &Function{
	id:         IDSHA256,
	name:       "sha256",
	LUTs:       2600, // message schedule + compression datapath
	InBus:      8,
	OutBus:     32,
	BlockBytes: 64,
	outFixed:   32, // a digest, regardless of input length
	hwSetup:    16,
	hwPerBlock: 72, // 64 rounds + schedule overlap per 512-bit block
	swSetup:    200,
	swPerByte:  40, // pre-SHA-NI scalar software, era-appropriate
	run: func(out, in []byte) {
		d := sha256Digest(in)
		copy(out, d[:])
	},
}

// SHA256 is the SHA-256 digest core. Its output is always 32 bytes (the
// digest of the block-padded input).
func SHA256() *Function { return sha256Fn }
