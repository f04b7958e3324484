package algos

import (
	"encoding/binary"
	"math/bits"
)

// 64-bit modular exponentiation (base^exp mod m) by square-and-multiply.
// Input blocks are 24-byte records (base, exp, modulus as uint64 LE);
// each output is the 8-byte result. A modulus of zero yields zero rather
// than faulting the fabric. This is the small-RSA/DH-style kernel the
// paper's crypto references offload.

// mulMod64 computes a*b mod m with a 128-bit intermediate.
func mulMod64(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

func modExp64(base, exp, m uint64) uint64 {
	if m == 0 {
		return 0
	}
	if m == 1 {
		return 0
	}
	result := uint64(1 % m)
	base %= m
	for exp > 0 {
		if exp&1 != 0 {
			result = mulMod64(result, base, m)
		}
		base = mulMod64(base, base, m)
		exp >>= 1
	}
	return result
}

func modexpRun(out, in []byte) {
	blocks := len(in) / 24
	for b := 0; b < blocks; b++ {
		base := binary.LittleEndian.Uint64(in[24*b:])
		exp := binary.LittleEndian.Uint64(in[24*b+8:])
		m := binary.LittleEndian.Uint64(in[24*b+16:])
		binary.LittleEndian.PutUint64(out[8*b:], modExp64(base, exp, m))
	}
}

var modexpFn = &Function{
	id:          IDModExp,
	name:        "modexp64",
	LUTs:        1800, // 64-bit Montgomery-style datapath
	InBus:       8,
	OutBus:      8,
	BlockBytes:  24,
	outPerBlock: 8,
	hwSetup:     10,
	hwPerBlock:  100, // ~96 modmuls through a single-cycle-II pipelined Montgomery unit
	swSetup:     150,
	swPerByte:   480, // ~11.5k host cycles per record: 96 modmuls of 64×64→128 mul
	//             plus 128÷64 division on a 32-bit-era scalar host
	run: modexpRun,
}

// ModExp is the 64-bit modular exponentiation core.
func ModExp() *Function { return modexpFn }
