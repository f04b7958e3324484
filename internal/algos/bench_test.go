package algos

import (
	"fmt"
	"testing"

	"agilefpga/internal/sim"
)

var benchSink []byte

// BenchmarkExec reports every bank function's host throughput at one
// block and at 1 KiB (rounded up to whole blocks). Reported, never
// asserted: wall clock is machine-dependent, virtual time is not.
func BenchmarkExec(b *testing.B) {
	rng := sim.NewRNG(16)
	for _, f := range Bank() {
		sizes := []int{f.BlockBytes, f.Blocks(1024) * f.BlockBytes}
		if sizes[0] == sizes[1] {
			sizes = sizes[:1]
		}
		for _, n := range sizes {
			in := make([]byte, n)
			for i := range in {
				in[i] = byte(rng.Uint64())
			}
			b.Run(fmt.Sprintf("%s/%d", f.Name(), n), func(b *testing.B) {
				b.SetBytes(int64(n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink, _ = f.Exec(in)
				}
			})
		}
	}
}
