package algos

import (
	"encoding/binary"
	"math/bits"
)

// 128-bit modular exponentiation — the RSA/DH-class kernel one tier above
// modexp64, implemented over 64-bit limbs: a 128×128→256-bit schoolbook
// product and a Knuth-D reduction by the two-limb modulus (no big.Int;
// the tests cross-check against math/big independently).
//
// Input blocks are 48-byte records: base, exponent, modulus as 128-bit
// little-endian values; each output is the 16-byte result. A zero modulus
// yields zero.

// u128 is a two-limb little-endian unsigned integer.
type u128 struct {
	lo, hi uint64
}

func (a u128) isZero() bool { return a.lo == 0 && a.hi == 0 }

// mul128 returns the 256-bit product a·b, most significant limb first.
func mul128(a, b u128) (p3, p2, p1, p0 uint64) {
	var c uint64
	h00, p0 := bits.Mul64(a.lo, b.lo)
	h01, l01 := bits.Mul64(a.lo, b.hi)
	h10, l10 := bits.Mul64(a.hi, b.lo)
	p3, l11 := bits.Mul64(a.hi, b.hi)
	p1, c = bits.Add64(h00, l01, 0)
	p2, c = bits.Add64(h01, l11, c)
	p3 += c
	p1, c = bits.Add64(p1, l10, 0)
	p2, c = bits.Add64(p2, h10, c)
	p3 += c
	return p3, p2, p1, p0
}

// div3by2 divides the three-limb u2:u1:u0 by the two-limb v1:v0, which
// must be normalised (top bit of v1 set) and exceed u2:u1, so the
// quotient is one limb; it returns the remainder. Knuth's algorithm D,
// steps D3–D6: the estimate from the top limbs is at most two too large.
func div3by2(u2, u1, u0, v1, v0 uint64) (r1, r0 uint64) {
	q := ^uint64(0)
	if u2 < v1 {
		q, _ = bits.Div64(u2, u1, v1)
	}
	// u -= q·v over three limbs.
	ph0, pl0 := bits.Mul64(q, v0)
	ph1, pl1 := bits.Mul64(q, v1)
	mid, c := bits.Add64(pl1, ph0, 0)
	r0, b := bits.Sub64(u0, pl0, 0)
	r1, b = bits.Sub64(u1, mid, b)
	r2, _ := bits.Sub64(u2, ph1+c, b)
	for r2 != 0 { // went negative: q was too large, add v back
		r0, c = bits.Add64(r0, v0, 0)
		r1, c = bits.Add64(r1, v1, c)
		r2 += c
	}
	return r1, r0
}

// modulus128 is a non-zero modulus prepared for repeated reduction:
// shifted left s bits so that the top bit of v1 is set (two limbs), or
// just the low limb in v0 when the high limb is zero (v1 == 0).
type modulus128 struct {
	v1, v0 uint64
	s      uint
}

func newModulus128(m u128) modulus128 {
	if m.hi == 0 {
		return modulus128{v0: m.lo}
	}
	s := uint(bits.LeadingZeros64(m.hi))
	return modulus128{v1: m.hi<<s | m.lo>>(64-s), v0: m.lo << s, s: s}
}

// rem reduces the four-limb x3:x2:x1:x0, whose top half x3:x2 must be
// below the modulus — true of a product of two reduced values and of a
// 128-bit value widened with zeros.
func (m *modulus128) rem(x3, x2, x1, x0 uint64) u128 {
	if m.v1 == 0 {
		_, r := bits.Div64(x2, x1, m.v0)
		_, r = bits.Div64(r, x0, m.v0)
		return u128{lo: r}
	}
	// Shift the dividend as the modulus was; x < m·2¹²⁸ keeps it
	// inside four limbs.
	s := m.s
	u3 := x3<<s | x2>>(64-s)
	u2 := x2<<s | x1>>(64-s)
	u1 := x1<<s | x0>>(64-s)
	r1, r0 := div3by2(u3, u2, u1, m.v1, m.v0)
	r1, r0 = div3by2(r1, r0, x0<<s, m.v1, m.v0)
	return u128{lo: r0>>s | r1<<(64-s), hi: r1 >> s}
}

// mulMod computes a·b mod m for reduced a and b.
func (m *modulus128) mulMod(a, b u128) u128 { return m.rem(mul128(a, b)) }

func modExp128(base, exp, mod u128) u128 {
	if mod.hi == 0 && mod.lo <= 1 {
		return u128{} // modulus 0 by convention, modulus 1 by arithmetic
	}
	m := newModulus128(mod)
	result := u128{lo: 1}
	base = m.rem(0, 0, base.hi, base.lo)
	// Right-to-left square-and-multiply, stopping at the top set bit.
	for {
		if exp.lo&1 != 0 {
			result = m.mulMod(result, base)
		}
		exp = u128{lo: exp.lo>>1 | exp.hi<<63, hi: exp.hi >> 1}
		if exp.isZero() {
			return result
		}
		base = m.mulMod(base, base)
	}
}

func get128(p []byte) u128 {
	return u128{binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])}
}

func put128(p []byte, v u128) {
	binary.LittleEndian.PutUint64(p, v.lo)
	binary.LittleEndian.PutUint64(p[8:], v.hi)
}

var modexp128Fn = &Function{
	id:          IDModExp128,
	name:        "modexp128",
	LUTs:        3200, // 128-bit serial modular multiplier + exponent control
	InBus:       16,
	OutBus:      16,
	BlockBytes:  48,
	outPerBlock: 16,
	hwSetup:     12,
	hwPerBlock:  400, // ~192 modmuls through a 2-cycle-II 128-bit serial unit
	swSetup:     200,
	swPerByte:   1400, // ~67k host cycles per record: 192 modmuls of
	//              multi-precision shift-and-add on a 32-bit-era host
	run: func(out, in []byte) {
		for b := 0; b < len(in)/48; b++ {
			base := get128(in[48*b:])
			exp := get128(in[48*b+16:])
			m := get128(in[48*b+32:])
			put128(out[16*b:], modExp128(base, exp, m))
		}
	},
}

// ModExp128 is the 128-bit modular exponentiation core.
func ModExp128() *Function { return modexp128Fn }
