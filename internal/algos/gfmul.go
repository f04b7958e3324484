package algos

// GF(2⁸) multiplier over the AES polynomial. Input blocks are (a, b) byte
// pairs; each output byte is a·b in the field. Finite-field multipliers
// are tiny in LUTs and unbeatably parallel in fabric — the extreme end of
// the offload spectrum.

func gfmulRun(out, in []byte) {
	for i := 0; i+1 < len(in); i += 2 {
		out[i/2] = gfMulByte(in[i], in[i+1])
	}
}

var gfmulFn = &Function{
	id:          IDGFMul,
	name:        "gfmul8",
	LUTs:        150, // four parallel combinational multipliers
	InBus:       8,
	OutBus:      4,
	BlockBytes:  8, // four pairs
	outPerBlock: 4,
	hwSetup:     2,
	hwPerBlock:  1, // four products per cycle
	swSetup:     40,
	swPerByte:   4, // shift-and-xor loop per pair
	run:         gfmulRun,
}

// GFMul is the GF(2⁸) pairwise multiplier core.
func GFMul() *Function { return gfmulFn }
