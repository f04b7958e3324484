package algos

// Tests for MD5 and the 128-bit modular exponentiation core.

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"
	"time"
)

func TestMD5MatchesStdlib(t *testing.T) {
	f := func(msg []byte) bool {
		want := md5.Sum(msg)
		return md5Digest(msg) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Known RFC 1321 vector on an exactly block-sized input via the
	// Function (which digests the padded input).
	in := []byte("abc")
	padded := make([]byte, 64)
	copy(padded, in)
	want := md5.Sum(padded)
	got, _ := MD5().Exec(in)
	if !bytes.Equal(got, want[:]) {
		t.Error("Function-level MD5 mismatch")
	}
}

func TestMD5ConstantTableBitExact(t *testing.T) {
	// The Taylor-derived constants must match the canonical first and
	// last table entries from RFC 1321.
	md5Once.Do(md5Init)
	known := map[int]uint32{
		0:  0xd76aa478,
		1:  0xe8c7b756,
		15: 0x49b40821,
		31: 0x8d2a4c8a,
		63: 0xeb86d391,
	}
	for i, want := range known {
		if md5K[i] != want {
			t.Errorf("K[%d] = %08x, want %08x", i, md5K[i], want)
		}
	}
}

func u128ToBig(v u128) *big.Int {
	b := new(big.Int).SetUint64(v.hi)
	b.Lsh(b, 64)
	return b.Or(b, new(big.Int).SetUint64(v.lo))
}

func TestModExp128MatchesBig(t *testing.T) {
	f := func(bl, bh, el, eh, ml, mh uint64) bool {
		base := u128{bl, bh}
		exp := u128{el, eh % 16} // bound the exponent's high limb to keep runtime sane
		m := u128{ml, mh}
		got := modExp128(base, exp, m)
		if m.isZero() {
			return got.isZero()
		}
		want := new(big.Int).Exp(u128ToBig(base), u128ToBig(exp), u128ToBig(m))
		return u128ToBig(got).Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestModExp128SmallModulusTerminates: a full-width base over a tiny
// modulus used to be reduced by repeated subtraction (~2¹²⁶ iterations
// for base 2¹²⁸−1, modulus 3) — one request wedged a card worker for
// good. Every case must return, and return what math/big does, well
// inside the watchdog.
func TestModExp128SmallModulusTerminates(t *testing.T) {
	const max = ^uint64(0)
	ones := u128{max, max}
	moduli := []u128{
		{lo: 2}, {lo: 3}, {lo: 4}, {lo: 5},
		{lo: max}, {lo: max - 1}, // 2⁶⁴−1, 2⁶⁴−2
		{hi: 1}, {lo: 1, hi: 1}, // 2⁶⁴, 2⁶⁴+1
		{lo: max - 1, hi: max}, ones, // 2¹²⁸−2, 2¹²⁸−1
	}
	done := make(chan string, 1)
	go func() {
		for _, m := range moduli {
			got := modExp128(ones, ones, m)
			want := new(big.Int).Exp(u128ToBig(ones), u128ToBig(ones), u128ToBig(m))
			if u128ToBig(got).Cmp(want) != 0 {
				done <- fmt.Sprintf("(2¹²⁸−1)^(2¹²⁸−1) mod %x:%x = %x:%x, math/big gives %x", m.hi, m.lo, got.hi, got.lo, want)
				return
			}
		}
		done <- ""
	}()
	select {
	case msg := <-done:
		if msg != "" {
			t.Error(msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("modExp128 still running after 2 s")
	}
}

func TestModExp128KnownValues(t *testing.T) {
	cases := []struct {
		base, exp, mod, want uint64
	}{
		{2, 10, 1000, 24},
		{3, 0, 7, 1},
		{0, 5, 13, 0},
		{7, 1, 13, 7},
		{5, 3, 1, 0},
	}
	for _, c := range cases {
		got := modExp128(u128{lo: c.base}, u128{lo: c.exp}, u128{lo: c.mod})
		if got.lo != c.want || got.hi != 0 {
			t.Errorf("%d^%d mod %d = %d, want %d", c.base, c.exp, c.mod, got.lo, c.want)
		}
	}
}

func TestModExp128ExecFraming(t *testing.T) {
	in := make([]byte, 96) // two records
	// Record 0: 2^10 mod 1000 = 24.
	binary.LittleEndian.PutUint64(in[0:], 2)
	binary.LittleEndian.PutUint64(in[16:], 10)
	binary.LittleEndian.PutUint64(in[32:], 1000)
	// Record 1: zero modulus → zero.
	binary.LittleEndian.PutUint64(in[48:], 9)
	binary.LittleEndian.PutUint64(in[64:], 9)
	out, err := ModExp128().Exec(in)
	if err != nil || len(out) != 32 {
		t.Fatalf("out %d bytes, err %v", len(out), err)
	}
	if binary.LittleEndian.Uint64(out[0:]) != 24 {
		t.Errorf("record 0 = %d", binary.LittleEndian.Uint64(out[0:]))
	}
	if binary.LittleEndian.Uint64(out[16:]) != 0 {
		t.Errorf("record 1 = %d", binary.LittleEndian.Uint64(out[16:]))
	}
}

func TestU128Arithmetic(t *testing.T) {
	limbsToBig := func(limbs ...uint64) *big.Int { // most significant first
		b := new(big.Int)
		for _, l := range limbs {
			b.Lsh(b, 64).Or(b, new(big.Int).SetUint64(l))
		}
		return b
	}
	f := func(al, ah, bl, bh, ml, mh uint64, narrow uint8) bool {
		// Squeeze the modulus through every width: random 64-bit limbs
		// alone would never produce a one-limb or unnormalised one.
		m := u128{ml, mh}
		if s := uint(narrow) % 128; s >= 64 {
			m = u128{lo: mh >> (s - 64)}
		} else {
			m = u128{lo: ml>>s | mh<<(64-s), hi: mh >> s}
		}
		a, b := u128{al, ah}, u128{bl, bh}
		ba, bb, bm := u128ToBig(a), u128ToBig(b), u128ToBig(m)
		// mul128 is the exact 256-bit product.
		if limbsToBig(mul128(a, b)).Cmp(new(big.Int).Mul(ba, bb)) != 0 {
			return false
		}
		if m.isZero() {
			return true
		}
		// rem of a widened 128-bit value is the plain remainder ...
		pm := newModulus128(m)
		ra := pm.rem(0, 0, a.hi, a.lo)
		if u128ToBig(ra).Cmp(new(big.Int).Mod(ba, bm)) != 0 {
			return false
		}
		// ... and of a product of two reduced values, the modular product.
		rb := pm.rem(0, 0, b.hi, b.lo)
		want := new(big.Int).Mul(u128ToBig(ra), u128ToBig(rb))
		return u128ToBig(pm.mulMod(ra, rb)).Cmp(want.Mod(want, bm)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
