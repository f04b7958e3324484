package algos

import "encoding/binary"

// Bitonic sorting network over blocks of 256 uint32 (little-endian),
// ascending. Sorting networks map beautifully onto fabric — the whole
// compare-exchange schedule is fixed wiring — and terribly onto scalar
// hosts, making this the paper's "computationally intensive function"
// par excellence for data reorganisation.

const bitonicN = 256

func bitonicRun(out, in []byte) {
	const blockBytes = bitonicN * 4
	copy(out, in)
	var v [bitonicN]uint32
	for b := 0; b+blockBytes <= len(out); b += blockBytes {
		for i := range v {
			v[i] = binary.LittleEndian.Uint32(out[b+4*i:])
		}
		// Standard bitonic network: k = subsequence size, j = stride.
		// Column (k, j) compare-exchanges i with i+j for every i whose j
		// bit is clear: the first and second halves of each 2j chunk.
		// The direction is bit k of i, constant over a chunk (2j ≤ k).
		for k := 2; k <= bitonicN; k <<= 1 {
			for j := k >> 1; j > 0; j >>= 1 {
				for base := 0; base < bitonicN; base += 2 * j {
					lo, hi := v[base:base+j], v[base+j:][:j]
					if base&k == 0 {
						for i, x := range lo {
							lo[i], hi[i] = min(x, hi[i]), max(x, hi[i])
						}
					} else {
						for i, x := range lo {
							lo[i], hi[i] = max(x, hi[i]), min(x, hi[i])
						}
					}
				}
			}
		}
		for i, x := range v {
			binary.LittleEndian.PutUint32(out[b+4*i:], x)
		}
	}
}

var bitonicFn = &Function{
	id:          IDBitonic,
	name:        "bitonic256",
	LUTs:        3600, // compare-exchange columns + block RAM glue
	InBus:       4,
	OutBus:      4,
	BlockBytes:  bitonicN * 4,
	outPerBlock: bitonicN * 4,
	hwSetup:     36,  // network depth (one column per cycle)
	hwPerBlock:  292, // 256 loads + 36 column passes per block
	swSetup:     400,
	swPerByte:   20, // comparison sort ≈ 20k host cycles per 1 KiB block
	run:         bitonicRun,
}

// Bitonic is the 256-element bitonic sort core.
func Bitonic() *Function { return bitonicFn }
