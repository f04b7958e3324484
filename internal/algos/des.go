package algos

import (
	"encoding/binary"
	"math/bits"
)

// DES ECB encryption from the FIPS-46 tables, with a fixed key baked into
// the core's bitstream (see the aes128 comment). DES remains the classic
// FPGA crypto demonstrator — its permutations are free in routing.

var desKey = [8]byte{'D', 'E', 'S', '-', 'K', 'E', 'Y', '!'}

// P permutation after the S-boxes.
var desP = [32]byte{
	16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
	2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
}

// The eight S-boxes.
var desS = [8][64]byte{
	{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
		0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
		4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
		15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13},
	{15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
		3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
		0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
		13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9},
	{10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
		13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
		13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
		1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12},
	{7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
		13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
		10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
		3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14},
	{2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
		14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
		4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
		11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3},
	{12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
		10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
		9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
		4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13},
	{4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
		13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
		1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
		6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12},
	{13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
		1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
		7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
		2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11},
}

// Key schedule tables.
var desPC1 = [56]byte{
	57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
	10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
	63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
	14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
}

var desPC2 = [48]byte{
	14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
	23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
	41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
	44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
}

var desShifts = [16]byte{1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1}

// permute applies a 1-based bit-selection table to a big-endian bit
// vector of width srcBits, producing len(table) output bits. It runs
// only at init: the key schedule and the SP-table derivation.
func permute(src uint64, srcBits uint, table []byte) uint64 {
	var out uint64
	for _, pos := range table {
		out <<= 1
		out |= (src >> (srcBits - uint(pos))) & 1
	}
	return out
}

// desSchedule is a 16-round key schedule in the form the SP lookup
// consumes: each 48-bit subkey split into its eight 6-bit S-box chunks,
// one per byte, chunks 0,2,4,6 in [0] and 1,3,5,7 in [1] (first chunk in
// the top byte).
type desSchedule [16][2]uint32

// desKeySchedule derives the 16 round subkeys of a 64-bit key; decrypt
// stores them in reverse order, which is all DES decryption is.
func desKeySchedule(key uint64, decrypt bool) desSchedule {
	var ks desSchedule
	cd := permute(key, 64, desPC1[:])
	c := uint32(cd>>28) & 0x0FFFFFFF
	d := uint32(cd) & 0x0FFFFFFF
	rot28 := func(v uint32, n byte) uint32 { return (v<<n | v>>(28-n)) & 0x0FFFFFFF }
	for i := 0; i < 16; i++ {
		c = rot28(c, desShifts[i])
		d = rot28(d, desShifts[i])
		k := desSplitKey(permute(uint64(c)<<28|uint64(d), 56, desPC2[:]))
		if decrypt {
			ks[15-i] = k
		} else {
			ks[i] = k
		}
	}
	return ks
}

// desSplitKey spreads a 48-bit subkey into desSchedule form.
func desSplitKey(k uint64) (split [2]uint32) {
	for chunk := uint(0); chunk < 8; chunk++ {
		six := uint32(k>>(42-6*chunk)) & 0x3F
		split[chunk&1] |= six << (24 - 8*(chunk>>1))
	}
	return split
}

// desSP[i][x] is S-box i applied to the 6-bit chunk x (still in E order:
// outer bits select the row), moved to its nibble of the 32-bit S output,
// sent through P, and rotated left one bit to match the rotated halves
// desRounds keeps. One lookup per chunk is the whole round function
// after the key XOR.
var desSP = func() (sp [8][64]uint32) {
	for i := range sp {
		for x := range sp[i] {
			row := (x&0x20)>>4 | x&1
			col := (x >> 1) & 0x0F
			s := uint64(desS[i][row*16+col]) << (28 - 4*uint(i))
			sp[i][x] = bits.RotateLeft32(uint32(permute(s, 32, desP[:])), 1)
		}
	}
	return sp
}()

// deltaSwap exchanges the bits of v selected by mask with the bits n
// positions above them.
func deltaSwap(v, mask uint64, n uint) uint64 {
	t := (v>>n ^ v) & mask
	return v ^ t ^ t<<n
}

// desIP is the FIPS-46 initial permutation as its five-step delta-swap
// network (a bit-matrix transpose); desFP, its inverse, is the same
// swaps in reverse order.
func desIP(v uint64) uint64 {
	v = deltaSwap(v, 0x0F0F0F0F, 36)
	v = deltaSwap(v, 0x0000FFFF, 48)
	v = deltaSwap(v, 0xCCCCCCCC, 30)
	v = deltaSwap(v, 0xFF00FF00, 24)
	return deltaSwap(v, 0x55555555, 33)
}

func desFP(v uint64) uint64 {
	v = deltaSwap(v, 0x55555555, 33)
	v = deltaSwap(v, 0xFF00FF00, 24)
	v = deltaSwap(v, 0xCCCCCCCC, 30)
	v = deltaSwap(v, 0x0000FFFF, 48)
	return deltaSwap(v, 0x0F0F0F0F, 36)
}

// desF is the round function f(R, K) on a half rotated left one bit.
// In that form the eight overlapping 6-bit windows of the E expansion
// are the low six bits of each byte of r (odd chunks) and of r rotated
// right four (even chunks), so E costs one rotate.
func desF(r uint32, k *[2]uint32) uint32 {
	even := bits.RotateLeft32(r, -4) ^ k[0]
	odd := r ^ k[1]
	return desSP[0][even>>24&0x3F] ^ desSP[1][odd>>24&0x3F] ^
		desSP[2][even>>16&0x3F] ^ desSP[3][odd>>16&0x3F] ^
		desSP[4][even>>8&0x3F] ^ desSP[5][odd>>8&0x3F] ^
		desSP[6][even&0x3F] ^ desSP[7][odd&0x3F]
}

// desRounds runs the 16 Feistel rounds between IP and FP: it takes
// IP's output and returns FP's input (the halves swapped after round
// 16). Feeding one call's result to the next is exactly FP followed by
// IP, which cancel — 3DES chains its three passes that way.
func desRounds(v uint64, ks *desSchedule) uint64 {
	l := bits.RotateLeft32(uint32(v>>32), 1)
	r := bits.RotateLeft32(uint32(v), 1)
	for i := 0; i < 16; i += 2 {
		l ^= desF(r, &ks[i])
		r ^= desF(l, &ks[i+1])
	}
	return uint64(bits.RotateLeft32(r, -1))<<32 | uint64(bits.RotateLeft32(l, -1))
}

var desSubkeys = desKeySchedule(binary.BigEndian.Uint64(desKey[:]), false)

func desEncryptBlock(dst, src []byte) {
	v := desIP(binary.BigEndian.Uint64(src))
	binary.BigEndian.PutUint64(dst, desFP(desRounds(v, &desSubkeys)))
}

var desFn = &Function{
	id:          IDDES,
	name:        "des",
	LUTs:        1400, // round function + key schedule; permutations are routing
	InBus:       8,
	OutBus:      8,
	BlockBytes:  8,
	outPerBlock: 8,
	hwSetup:     20, // 16-stage pipeline fill
	hwPerBlock:  1,  // fully pipelined Feistel ladder: one block per cycle
	swSetup:     300,
	swPerByte:   60, // bit-twiddling software DES is slow on scalar hosts
	run: func(out, in []byte) {
		for i := 0; i < len(in); i += 8 {
			desEncryptBlock(out[i:], in[i:])
		}
	},
}

// DES is the single-DES ECB encryption core.
func DES() *Function { return desFn }
