package algos

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// AES-128 ECB encryption, implemented from first principles (the S-box is
// derived from the GF(2⁸) inverse plus affine transform at init time
// rather than typed in). The cipher key is fixed — on the real
// co-processor it is baked into the configuration bitstream, which is
// precisely what makes an algorithm-agile card attractive for key-fixed
// appliance duty (cf. the paper's reference [2], an IPSec engine).

// aesKey is the key embedded in the aes128 core's bitstream.
var aesKey = [16]byte{'A', 'G', 'I', 'L', 'E', '-', 'A', 'E', 'S', '-', 'K', 'E', 'Y', '-', '1', '6'}

var (
	aesOnce sync.Once
	aesSbox [256]byte
	// aesTe[0][x] is the MixColumns column (2·s, s, s, 3·s) for s =
	// S-box(x), most significant byte first; aesTe[i] is aesTe[0]
	// rotated right by i bytes. One lookup per state byte does SubBytes
	// and MixColumns together; ShiftRows is which byte indexes which
	// table.
	aesTe [4][256]uint32
	// aesRoundK holds the 11 round keys as 44 big-endian column words.
	aesRoundK [44]uint32
)

// gfMulByte multiplies two GF(2⁸) elements modulo the AES polynomial.
func gfMulByte(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1B
		}
		b >>= 1
	}
	return p
}

// gfInv is the multiplicative inverse in GF(2⁸) (0 maps to 0), by
// exhaustion — it runs once.
func gfInv(a byte) byte {
	if a == 0 {
		return 0
	}
	for b := 1; b < 256; b++ {
		if gfMulByte(a, byte(b)) == 1 {
			return byte(b)
		}
	}
	panic("algos: GF(2^8) inverse not found")
}

func aesInit() {
	// S-box: affine transform of the field inverse.
	for i := 0; i < 256; i++ {
		x := gfInv(byte(i))
		aesSbox[i] = x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63
	}
	for i, s := range aesSbox {
		w := uint32(gfMulByte(s, 2))<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(gfMulByte(s, 3))
		for t := range aesTe {
			aesTe[t][i] = bits.RotateLeft32(w, -8*t)
		}
	}
	// Key expansion (FIPS-197 §5.2) into 44 words.
	for i := 0; i < 4; i++ {
		aesRoundK[i] = binary.BigEndian.Uint32(aesKey[4*i:])
	}
	rcon := byte(1)
	for i := 4; i < 44; i++ {
		t := aesRoundK[i-1]
		if i%4 == 0 {
			t = aesSubWord(bits.RotateLeft32(t, 8)) ^ uint32(rcon)<<24
			rcon = gfMulByte(rcon, 2)
		}
		aesRoundK[i] = aesRoundK[i-4] ^ t
	}
}

func rotl8(x byte, n uint) byte { return x<<n | x>>(8-n) }

// aesSubWord applies the S-box to each byte of w.
func aesSubWord(w uint32) uint32 {
	return uint32(aesSbox[w>>24])<<24 | uint32(aesSbox[w>>16&0xFF])<<16 |
		uint32(aesSbox[w>>8&0xFF])<<8 | uint32(aesSbox[w&0xFF])
}

// aesEncryptBlock encrypts one block; the state is its four columns as
// big-endian words.
func aesEncryptBlock(dst, src []byte) {
	_, _ = src[15], dst[15] // one bounds check each, up front
	k := &aesRoundK
	s0 := binary.BigEndian.Uint32(src[0:]) ^ k[0]
	s1 := binary.BigEndian.Uint32(src[4:]) ^ k[1]
	s2 := binary.BigEndian.Uint32(src[8:]) ^ k[2]
	s3 := binary.BigEndian.Uint32(src[12:]) ^ k[3]
	te0, te1, te2, te3 := &aesTe[0], &aesTe[1], &aesTe[2], &aesTe[3]
	for r := 4; r < 40; r += 4 {
		t0 := te0[s0>>24] ^ te1[s1>>16&0xFF] ^ te2[s2>>8&0xFF] ^ te3[s3&0xFF] ^ k[r]
		t1 := te0[s1>>24] ^ te1[s2>>16&0xFF] ^ te2[s3>>8&0xFF] ^ te3[s0&0xFF] ^ k[r+1]
		t2 := te0[s2>>24] ^ te1[s3>>16&0xFF] ^ te2[s0>>8&0xFF] ^ te3[s1&0xFF] ^ k[r+2]
		t3 := te0[s3>>24] ^ te1[s0>>16&0xFF] ^ te2[s1>>8&0xFF] ^ te3[s2&0xFF] ^ k[r+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	// Last round: ShiftRows and SubBytes, no MixColumns.
	binary.BigEndian.PutUint32(dst[0:], aesSubWord(s0&0xFF000000|s1&0xFF0000|s2&0xFF00|s3&0xFF)^k[40])
	binary.BigEndian.PutUint32(dst[4:], aesSubWord(s1&0xFF000000|s2&0xFF0000|s3&0xFF00|s0&0xFF)^k[41])
	binary.BigEndian.PutUint32(dst[8:], aesSubWord(s2&0xFF000000|s3&0xFF0000|s0&0xFF00|s1&0xFF)^k[42])
	binary.BigEndian.PutUint32(dst[12:], aesSubWord(s3&0xFF000000|s0&0xFF0000|s1&0xFF00|s2&0xFF)^k[43])
}

var aesFn = &Function{
	id:          IDAES128,
	name:        "aes128",
	LUTs:        2200, // iterative round datapath + key schedule storage
	InBus:       16,
	OutBus:      16,
	BlockBytes:  16,
	outPerBlock: 16,
	hwSetup:     16, // pipeline fill
	hwPerBlock:  3,  // four round units in parallel: a block every 3 cycles
	swSetup:     400,
	swPerByte:   30, // table-based software AES on a scalar host
	run: func(out, in []byte) {
		aesOnce.Do(aesInit)
		for i := 0; i < len(in); i += 16 {
			aesEncryptBlock(out[i:], in[i:])
		}
	},
}

// AES128 is the AES-128 ECB encryption core.
func AES128() *Function { return aesFn }
