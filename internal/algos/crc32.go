package algos

import (
	"encoding/binary"
	"sync"
)

// CRC-32 (IEEE 802.3, reflected). The hardware core folds 32 input bits
// per cycle through a parallel LFSR; the table here is built at init from
// the polynomial, not typed in.

var (
	crcOnce  sync.Once
	crcTable [256]uint32
)

func crcInit() {
	const poly = 0xEDB88320
	for i := range crcTable {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = c>>1 ^ poly
			} else {
				c >>= 1
			}
		}
		crcTable[i] = c
	}
}

func crc32IEEE(p []byte) uint32 {
	crcOnce.Do(crcInit)
	crc := ^uint32(0)
	for _, b := range p {
		crc = crc>>8 ^ crcTable[byte(crc)^b]
	}
	return ^crc
}

var crcFn = &Function{
	id:         IDCRC32,
	name:       "crc32",
	LUTs:       300, // parallel CRC over a 32-bit word
	InBus:      4,
	OutBus:     4,
	BlockBytes: 4,
	outFixed:   4,
	hwSetup:    4,
	hwPerBlock: 1, // one word per cycle
	swSetup:    60,
	swPerByte:  7, // byte-at-a-time table CRC (slicing-by-8 postdates the paper)
	run: func(out, in []byte) {
		binary.LittleEndian.PutUint32(out, crc32IEEE(in))
	},
}

// CRC32 is the CRC-32 (IEEE) checksum core. Its output is 4 bytes (the
// checksum of the word-padded input).
func CRC32() *Function { return crcFn }
