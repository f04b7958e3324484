package algos

// Tests for the word-level kernels: every derived lookup table is
// recomputed entry by entry from the bit-level definition it replaced,
// the block ciphers, hashes and modexp128 are checked against the
// standard library, and the DSP and sorting kernels are fuzzed against
// the straightforward versions they replaced.

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/des"
	"crypto/md5"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
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

func TestHashesMatchStdlibAtEveryLength(t *testing.T) {
	// Every length from 0 to 200 crosses each padding edge: a tail of
	// 55 bytes still fits the length field in its block, 56 does not.
	msg := make([]byte, 200)
	for i := range msg {
		msg[i] = byte(i*131 + 7)
	}
	for n := 0; n <= len(msg); n++ {
		m := msg[:n]
		if got, want := sha256Digest(m), sha256.Sum256(m); got != want {
			t.Errorf("sha256 at %d bytes: %x, stdlib gives %x", n, got, want)
		}
		if got, want := sha1Digest(m), sha1.Sum(m); got != want {
			t.Errorf("sha1 at %d bytes: %x, stdlib gives %x", n, got, want)
		}
		if got, want := md5Digest(m), md5.Sum(m); got != want {
			t.Errorf("md5 at %d bytes: %x, stdlib gives %x", n, got, want)
		}
	}
}

func TestExecAllocs(t *testing.T) {
	// A whole-block call allocates its output buffer and nothing else,
	// and into the caller's storage it allocates nothing.
	for _, f := range Bank() {
		in := make([]byte, f.Blocks(1024)*f.BlockBytes)
		for i := range in {
			in[i] = byte(i * 37)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := f.Exec(in); err != nil {
				t.Fatal(err)
			}
		})
		if got > 1 {
			t.Errorf("%s(%d bytes): %.0f allocs per call, want ≤ 1", f.Name(), len(in), got)
		}
		dst := make([]byte, f.OutputLen(len(in)))
		got = testing.AllocsPerRun(20, func() {
			if err := f.ExecInto(dst, in); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s(%d bytes) into caller storage: %.0f allocs per call, want 0", f.Name(), len(in), got)
		}
	}
}

// FuzzExecInto checks the destination rule of fpga.Core on every bank
// function: ExecInto writes every byte of its destination and reads
// none back first. The card passes its RAM output window, which still
// holds the previous output, so a kernel that relied on zeroed storage
// would corrupt data silently. Each input, ragged or multi-KiB, runs
// into one reused buffer filled with poison bytes beforehand, and must
// equal Exec's output into fresh, zeroed storage. A destination of the
// wrong size is refused.
func FuzzExecInto(f *testing.F) {
	ramp := make([]byte, 9000)
	for i := range ramp {
		ramp[i] = byte(i*131 + 7)
	}
	for _, n := range []int{1, 3, 8, 15, 16, 17, 47, 48, 63, 64, 65, 223, 224, 256, 1023, 1024, 1025, 4099, 9000} {
		f.Add(ramp[:n], byte(0xA5))
	}
	f.Add(ramp[:1024], byte(0))
	f.Add(ramp[:300], byte(0xff))
	bank := Bank()
	var buf []byte
	f.Fuzz(func(t *testing.T, in []byte, poison byte) {
		for _, fn := range bank {
			want, err := fn.Exec(in)
			if len(in) == 0 {
				if err == nil || fn.ExecInto(nil, in) == nil {
					t.Fatalf("%s accepted an empty input", fn.Name())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s(%d bytes): %v", fn.Name(), len(in), err)
			}
			n := fn.OutputLen(len(in))
			if cap(buf) < n+1 {
				buf = make([]byte, 2*n+1)
			}
			dst := buf[:n]
			for i := range buf[:cap(buf)] {
				buf[:cap(buf)][i] = poison
			}
			if err := fn.ExecInto(dst, in); err != nil {
				t.Fatalf("%s(%d bytes) into %d: %v", fn.Name(), len(in), n, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s(%d bytes): output into a poisoned destination differs from Exec's", fn.Name(), len(in))
			}
			if buf[:n+1][n] != poison {
				t.Fatalf("%s(%d bytes) wrote past its %d-byte destination", fn.Name(), len(in), n)
			}
			if fn.ExecInto(buf[:n+1], in) == nil || fn.ExecInto(dst[:n-1], in) == nil {
				t.Fatalf("%s(%d bytes) accepted a destination of the wrong size", fn.Name(), len(in))
			}
		}
	})
}

// FuzzDSPKernels compares fir16, fft64 and bitonic256 byte for byte with
// the reference versions below, on raw (unpadded) input of any length.
func FuzzDSPKernels(f *testing.F) {
	fullScale := make([]byte, 2*fftPoints*4)
	for i := 0; i < len(fullScale); i += 2 {
		binary.LittleEndian.PutUint16(fullScale[i:], uint16(0x8000-i/2%2)) // −32768, +32767, …
	}
	dups := make([]byte, 2*bitonicN*4+6)
	for i := range dups {
		dups[i] = byte(i/4%3) * 0x55 // three distinct words
	}
	ramp := make([]byte, 4096+3)
	for i := range ramp {
		ramp[i] = byte(i * 31)
	}
	for _, seed := range [][]byte{
		nil, {1}, {0, 0x80}, ramp[:14], ramp[:29], ramp[:30], ramp[:31], ramp[:33],
		ramp[:255], ramp[:257], ramp[:1023], ramp, fullScale, fullScale[:28],
		bytes.Repeat([]byte{0xff, 0x7f}, 300), dups,
	} {
		f.Add(seed)
	}
	kernels := []struct {
		name string
		got  func(out, in []byte)
		ref  func([]byte) []byte
	}{
		{"fir16", firFilter, firFilterRef},
		{"fft64", fftRun, fftRunRef},
		{"bitonic256", bitonicRun, bitonicRunRef},
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, k := range kernels {
			got, want := make([]byte, len(in)), k.ref(in)
			k.got(got, in)
			if len(got) != len(want) {
				t.Fatalf("%s(%d bytes): %d bytes out, reference gives %d", k.name, len(in), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s(%d bytes): byte %d is %#02x, reference gives %#02x", k.name, len(in), i, got[i], want[i])
				}
			}
		}
	})
}

// The reference kernels: fir16, fft64 and bitonic256 as they were before
// the word-level rewrite, verbatim apart from the Ref names.

func firFilterRef(in []byte) []byte {
	n := len(in) / 2
	samples := make([]int32, n)
	for i := 0; i < n; i++ {
		samples[i] = int32(int16(binary.LittleEndian.Uint16(in[2*i:])))
	}
	out := make([]byte, len(in))
	for i := 0; i < n; i++ {
		var acc int64
		for t := 0; t < 16; t++ {
			idx := i - t
			if idx < 0 {
				continue // zero initial state
			}
			acc += int64(samples[idx]) * int64(firCoeff[t])
		}
		y := acc >> 15 // Q15 renormalisation
		if y > 32767 {
			y = 32767
		} else if y < -32768 {
			y = -32768
		}
		binary.LittleEndian.PutUint16(out[2*i:], uint16(int16(y)))
	}
	return out
}

var (
	fftOnceRef sync.Once
	fftTwReRef [fftPoints / 2]int32 // Q14 twiddle factors
	fftTwImRef [fftPoints / 2]int32
)

func fftInitRef() {
	for k := 0; k < fftPoints/2; k++ {
		ang := -2 * math.Pi * float64(k) / fftPoints
		fftTwReRef[k] = int32(math.Round(math.Cos(ang) * 16384))
		fftTwImRef[k] = int32(math.Round(math.Sin(ang) * 16384))
	}
}

// fftBlockRef transforms one 64-point block in place (Q15, scaled by 1/64).
func fftBlockRef(re, im []int32) {
	// Bit reversal.
	for i, j := 0, 0; i < fftPoints; i++ {
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
		m := fftPoints >> 1
		for m >= 1 && j&m != 0 {
			j ^= m
			m >>= 1
		}
		j |= m
	}
	for size := 2; size <= fftPoints; size <<= 1 {
		half := size >> 1
		step := fftPoints / size
		for start := 0; start < fftPoints; start += size {
			for k := 0; k < half; k++ {
				tw := k * step
				i0, i1 := start+k, start+k+half
				// Complex multiply by the Q14 twiddle.
				tr := (re[i1]*fftTwReRef[tw] - im[i1]*fftTwImRef[tw]) >> 14
				ti := (re[i1]*fftTwImRef[tw] + im[i1]*fftTwReRef[tw]) >> 14
				// Butterfly with per-stage scaling (>>1) against overflow.
				re[i1] = (re[i0] - tr) >> 1
				im[i1] = (im[i0] - ti) >> 1
				re[i0] = (re[i0] + tr) >> 1
				im[i0] = (im[i0] + ti) >> 1
			}
		}
	}
}

func fftRunRef(in []byte) []byte {
	fftOnceRef.Do(fftInitRef)
	const blockBytes = fftPoints * 4
	out := make([]byte, len(in))
	var re, im [fftPoints]int32
	for b := 0; b+blockBytes <= len(in); b += blockBytes {
		for i := 0; i < fftPoints; i++ {
			re[i] = int32(int16(binary.LittleEndian.Uint16(in[b+4*i:])))
			im[i] = int32(int16(binary.LittleEndian.Uint16(in[b+4*i+2:])))
		}
		fftBlockRef(re[:], im[:])
		for i := 0; i < fftPoints; i++ {
			binary.LittleEndian.PutUint16(out[b+4*i:], uint16(int16(re[i])))
			binary.LittleEndian.PutUint16(out[b+4*i+2:], uint16(int16(im[i])))
		}
	}
	return out
}

func bitonicRunRef(in []byte) []byte {
	const blockBytes = bitonicN * 4
	out := make([]byte, len(in))
	copy(out, in)
	var v [bitonicN]uint32
	for b := 0; b+blockBytes <= len(out); b += blockBytes {
		for i := 0; i < bitonicN; i++ {
			v[i] = binary.LittleEndian.Uint32(out[b+4*i:])
		}
		// Standard bitonic network: k = subsequence size, j = stride.
		for k := 2; k <= bitonicN; k <<= 1 {
			for j := k >> 1; j > 0; j >>= 1 {
				for i := 0; i < bitonicN; i++ {
					l := i ^ j
					if l > i {
						asc := i&k == 0
						if (asc && v[i] > v[l]) || (!asc && v[i] < v[l]) {
							v[i], v[l] = v[l], v[i]
						}
					}
				}
			}
		}
		for i := 0; i < bitonicN; i++ {
			binary.LittleEndian.PutUint32(out[b+4*i:], v[i])
		}
	}
	return out
}
