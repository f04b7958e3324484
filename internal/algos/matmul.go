package algos

import "encoding/binary"

// 8×8 signed 16-bit matrix multiply. Each input block carries two
// matrices A then B (row-major int16 LE, 128 bytes each); the output
// block is C = A·B in int32 (256 bytes). Accumulation is a 32-bit
// datapath: sums that exceed 32 bits wrap in two's complement, exactly as
// the hardware accumulator register would. The core is an 8×8 systolic
// array retiring one result matrix every 8 cycles once primed.

const (
	matN        = 8
	matInBytes  = 2 * matN * matN * 2 // two int16 matrices
	matOutBytes = matN * matN * 4     // one int32 matrix
)

func matmulRun(out, in []byte) {
	blocks := len(in) / matInBytes
	for b := 0; b < blocks; b++ {
		src := in[b*matInBytes:]
		dst := out[b*matOutBytes:]
		var a, m [matN][matN]int32
		for i := 0; i < matN; i++ {
			for j := 0; j < matN; j++ {
				a[i][j] = int32(int16(binary.LittleEndian.Uint16(src[2*(i*matN+j):])))
				m[i][j] = int32(int16(binary.LittleEndian.Uint16(src[2*(matN*matN+i*matN+j):])))
			}
		}
		for i := 0; i < matN; i++ {
			for j := 0; j < matN; j++ {
				var acc int32
				for k := 0; k < matN; k++ {
					acc += a[i][k] * m[k][j]
				}
				binary.LittleEndian.PutUint32(dst[4*(i*matN+j):], uint32(acc))
			}
		}
	}
}

var matmulFn = &Function{
	id:          IDMatMul,
	name:        "matmul8",
	LUTs:        2500, // 64 MAC cells + skew registers
	InBus:       16,   // one matrix row
	OutBus:      32,
	BlockBytes:  matInBytes,
	outPerBlock: matOutBytes,
	hwSetup:     16, // array priming
	hwPerBlock:  8,  // one result matrix every 8 cycles
	swSetup:     200,
	swPerByte:   6, // 512 MACs ≈ 1.5k host cycles per 256-byte block
	run:         matmulRun,
}

// MatMul is the 8×8 matrix multiply core.
func MatMul() *Function { return matmulFn }
