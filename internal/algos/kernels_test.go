package algos

// Tests for the word-level kernels: every derived lookup table is
// recomputed entry by entry from the bit-level definition it replaced,
// and the block ciphers and modexp128 are fuzzed against the standard
// library.

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/des"
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"
)

// The FIPS-46 permutations the kernels no longer walk bit by bit: the
// delta-swap networks and the E windows of desF are checked against
// them here.

// Initial permutation.
var desIPTable = [64]byte{
	58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
	62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
	57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
	61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
}

// Final permutation (inverse of IP).
var desFPTable = [64]byte{
	40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
	38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
	36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
	34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
}

// Expansion of the 32-bit half to 48 bits.
var desE = [48]byte{
	32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9,
	8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
	16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
	24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
}

// desFeistelRef is the round function f(R, K) by the FIPS-46 definition:
// expand through E, XOR the 48-bit subkey, eight S-boxes, permute by P.
func desFeistelRef(r uint32, k uint64) uint32 {
	x := permute(uint64(r), 32, desE[:]) ^ k
	var s uint32
	for i := 0; i < 8; i++ {
		six := byte(x>>(42-6*uint(i))) & 0x3F
		row := (six&0x20)>>4 | six&1
		col := (six >> 1) & 0x0F
		s = s<<4 | uint32(desS[i][row*16+col])
	}
	return uint32(permute(uint64(s), 32, desP[:]))
}

func TestAESTablesFromDefinition(t *testing.T) {
	aesOnce.Do(aesInit)
	for x := 0; x < 256; x++ {
		s := aesSbox[x]
		// The S-box is the affine image of the field inverse.
		inv := byte(0)
		for c := 1; c < 256 && x != 0; c++ {
			if gfMulByte(byte(x), byte(c)) == 1 {
				inv = byte(c)
			}
		}
		affine := byte(0x63)
		for sh := 0; sh < 5; sh++ {
			affine ^= bits.RotateLeft8(inv, sh)
		}
		if s != affine {
			t.Fatalf("aesSbox[%#x] = %#x, definition gives %#x", x, s, affine)
		}
		// aesTe[c][x] is column c of the MixColumns matrix times S(x).
		mix := [4][4]byte{{2, 3, 1, 1}, {1, 2, 3, 1}, {1, 1, 2, 3}, {3, 1, 1, 2}}
		for c := 0; c < 4; c++ {
			var want uint32
			for row := 0; row < 4; row++ {
				want = want<<8 | uint32(gfMulByte(mix[row][c], s))
			}
			if aesTe[c][x] != want {
				t.Fatalf("aesTe[%d][%#x] = %08x, definition gives %08x", c, x, aesTe[c][x], want)
			}
		}
	}
}

func TestDESTablesFromDefinition(t *testing.T) {
	// Every SP entry, through E, the S-boxes and P one bit at a time:
	// put chunk x where E reads S-box i's six bits, run the reference
	// round function, and keep the output bits P routes from S-box i.
	for i := 0; i < 8; i++ {
		fromBox := uint32(permute(0xF<<(28-4*uint(i)), 32, desP[:]))
		for x := 0; x < 64; x++ {
			// E's window i is R bits 4i..4i+5 (1-based, wrapping): x
			// rotated into place around the 32-bit half.
			r := bits.RotateLeft32(uint32(x), 27-4*i)
			if got := byte(permute(uint64(r), 32, desE[:]) >> (42 - 6*uint(i)) & 0x3F); int(got) != x {
				t.Fatalf("window %d: placed %#x, E reads %#x", i, x, got)
			}
			want := bits.RotateLeft32(desFeistelRef(r, 0)&fromBox, 1)
			if desSP[i][x] != want {
				t.Fatalf("desSP[%d][%#x] = %08x, definition gives %08x", i, x, desSP[i][x], want)
			}
		}
	}
	// The assembled round function, with a subkey in split form.
	f := func(r uint32, k uint64) bool {
		k &= 1<<48 - 1
		split := desSplitKey(k)
		got := bits.RotateLeft32(desF(bits.RotateLeft32(r, 1), &split), -1)
		return got == desFeistelRef(r, k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDESPermutationNetworks(t *testing.T) {
	check := func(v uint64) bool {
		return desIP(v) == permute(v, 64, desIPTable[:]) &&
			desFP(v) == permute(v, 64, desFPTable[:]) &&
			desFP(desIP(v)) == v
	}
	for bit := uint(0); bit < 64; bit++ {
		if !check(1 << bit) {
			t.Fatalf("bit %d lands wrong", bit)
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// ecbEncrypt is the oracle: zero-pad to whole blocks, encrypt each.
func ecbEncrypt(b cipher.Block, in []byte) []byte {
	bs := b.BlockSize()
	out := make([]byte, (len(in)+bs-1)/bs*bs)
	copy(out, in)
	for i := 0; i < len(out); i += bs {
		b.Encrypt(out[i:i+bs], out[i:i+bs])
	}
	return out
}

func FuzzBlockCiphers(f *testing.F) {
	for _, n := range []int{1, 7, 8, 15, 16, 17, 1024, 4096 + 3} {
		seed := make([]byte, n)
		for i := range seed {
			seed[i] = byte(i * 31)
		}
		f.Add(seed)
	}
	aesRef, err := aes.NewCipher(aesKey[:])
	if err != nil {
		f.Fatal(err)
	}
	desRef, err := des.NewCipher(desKey[:])
	if err != nil {
		f.Fatal(err)
	}
	var key3 []byte
	for _, k := range tdesKeys {
		key3 = append(key3, k[:]...)
	}
	tdesRef, err := des.NewTripleDESCipher(key3)
	if err != nil {
		f.Fatal(err)
	}
	cores := []struct {
		fn  *Function
		ref cipher.Block
	}{{AES128(), aesRef}, {DES(), desRef}, {TDES(), tdesRef}}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, c := range cores {
			got, err := c.fn.Exec(in)
			if len(in) == 0 {
				if err == nil {
					t.Fatalf("%s: empty input accepted", c.fn.Name())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s(%d bytes): %v", c.fn.Name(), len(in), err)
			}
			if want := ecbEncrypt(c.ref, in); !bytes.Equal(got, want) {
				t.Fatalf("%s(%x) = %x, stdlib gives %x", c.fn.Name(), in, got, want)
			}
		}
	})
}

func FuzzModExp128(f *testing.F) {
	const max = ^uint64(0)
	// base, exponent, modulus as (lo, hi) limbs.
	f.Add(uint64(7), uint64(0), uint64(5), uint64(0), uint64(0), uint64(0))    // modulus 0
	f.Add(uint64(7), uint64(0), uint64(5), uint64(0), uint64(1), uint64(0))    // modulus 1
	f.Add(max, max, max, max, uint64(2), uint64(0))                            // modulus 2
	f.Add(max, max, max, max, uint64(3), uint64(0))                            // modulus 3
	f.Add(max-1, max, uint64(65537), uint64(0), max, max)                      // modulus 2¹²⁸−1
	f.Add(uint64(3), uint64(9), max, uint64(1), uint64(0), uint64(1))          // modulus 2⁶⁴
	f.Add(max, max, uint64(12345), uint64(6), uint64(1)<<40, uint64(1)<<20)    // even, two limbs
	f.Add(uint64(9), uint64(9), uint64(0), uint64(0), uint64(1000), uint64(0)) // exponent 0
	f.Fuzz(func(t *testing.T, bl, bh, el, eh, ml, mh uint64) {
		base, exp, m := u128{bl, bh}, u128{el, eh}, u128{ml, mh}
		got := modExp128(base, exp, m)
		want := new(big.Int)
		if !m.isZero() {
			want.Exp(u128ToBig(base), u128ToBig(exp), u128ToBig(m))
		}
		if u128ToBig(got).Cmp(want) != 0 {
			t.Fatalf("%x:%x ^ %x:%x mod %x:%x = %x:%x, math/big gives %x",
				bh, bl, eh, el, mh, ml, got.hi, got.lo, want)
		}
	})
}
