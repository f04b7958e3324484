package fpga

import (
	"hash/crc32"
	"math/bits"
)

// The configuration CRC. The exact polynomial matters less than that port
// and assemblers agree: both use IEEE CRC-32 over, for each word of a
// register write, the register id byte followed by the word's four
// big-endian bytes.

// CRCUpdateBurst folds a register write into the running CRC. payload is
// the write's big-endian words (a trailing partial word is ignored). The
// reg‖word bytes are interleaved into *scratch, which the caller owns and
// which grows as needed, and summed in a single pass: hash/crc32
// dispatches through a function value, so a buffer on this frame's stack
// would escape to the heap on every call.
func CRCUpdateBurst(crc uint32, reg int, payload []byte, scratch *[]byte) uint32 {
	words := len(payload) / 4
	if cap(*scratch) < 5*words {
		*scratch = make([]byte, 5*words)
	}
	buf := (*scratch)[:5*words]
	r := byte(reg)
	dst, src := buf, payload[:4*words]
	for ; len(src) >= 16; dst, src = dst[20:], src[16:] {
		d, s := dst[:20:20], src[:16:16]
		d[0], d[1], d[2], d[3], d[4] = r, s[0], s[1], s[2], s[3]
		d[5], d[6], d[7], d[8], d[9] = r, s[4], s[5], s[6], s[7]
		d[10], d[11], d[12], d[13], d[14] = r, s[8], s[9], s[10], s[11]
		d[15], d[16], d[17], d[18], d[19] = r, s[12], s[13], s[14], s[15]
	}
	for ; len(src) >= 4; dst, src = dst[5:], src[4:] {
		d, s := dst[:5:5], src[:4:4]
		d[0], d[1], d[2], d[3], d[4] = r, s[0], s[1], s[2], s[3]
	}
	return crc32.Update(crc, crc32.IEEETable, buf)
}

// A CRC-32 register is linear over GF(2): summing a burst from state s
// gives L(s) ⊕ K, where L shifts s through as many zero bytes as the
// burst holds and K is the burst summed from state zero. A burst whose
// bytes never change — a stored frame image — is summed once into its
// key K, and folding it into any running CRC later costs one pass of L
// through four 256-entry tables instead of a pass over its bytes.

// CRCBurstKey returns the key of a register write: its contribution to
// the running CRC independent of the state it is folded into. A
// CRCShift sized for the write's word count folds it (CRCShift.Fold).
func CRCBurstKey(reg int, payload []byte, scratch *[]byte) uint32 {
	// crc32.Update inverts the state on entry and exit, so the raw
	// register summed from zero is the complement of an update from ^0.
	return ^CRCUpdateBurst(^uint32(0), reg, payload, scratch)
}

// CRCShift is the shift operator L for register writes of a fixed word
// count, as four byte-indexed tables.
type CRCShift struct {
	words int
	t     [4][256]uint32
}

// NewCRCShift builds the shift operator for writes of words words.
func NewCRCShift(words int) *CRCShift {
	s := &CRCShift{words: words}
	zeros := make([]byte, 5*words)
	var basis [32]uint32
	for i := range basis {
		basis[i] = ^crc32.Update(^(uint32(1) << i), crc32.IEEETable, zeros)
	}
	for b := range s.t {
		for v := 1; v < 256; v++ {
			// v is its lowest set bit ⊕ v with that bit cleared.
			s.t[b][v] = s.t[b][v&(v-1)] ^ basis[8*b+bits.TrailingZeros(uint(v))]
		}
	}
	return s
}

// Words reports the write length, in words, the operator is built for.
func (s *CRCShift) Words() int { return s.words }

// Fold returns what CRCUpdateBurst(crc, reg, payload, _) returns, given
// key = CRCBurstKey(reg, payload, _) and a payload of s.Words() words.
func (s *CRCShift) Fold(crc, key uint32) uint32 {
	r := ^crc
	return ^(s.t[0][byte(r)] ^ s.t[1][byte(r>>8)] ^ s.t[2][byte(r>>16)] ^ s.t[3][byte(r>>24)] ^ key)
}
