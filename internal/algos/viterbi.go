package algos

import (
	"encoding/binary"
	"math/bits"
)

// Hard-decision Viterbi decoder for the ubiquitous K=7, rate-1/2
// convolutional code (generators 0o171 and 0o133 — Voyager/802.11/DVB).
// Sixty-four add-compare-select units in fabric retire one trellis step
// per cycle; the same trellis costs a scalar host hundreds of operations
// per decoded bit, making Viterbi one of the most offloaded kernels of
// the era.
//
// Framing: each input block is 16 bytes = 128 channel bits = 64 trellis
// steps of 2 bits, decoding to 64 information bits = 8 output bytes. The
// encoder starts each block in state 0; the decoder terminates at the
// best end state (blocks are independent). The last 6 information bits
// of a block are tail bits in a classic deployment; here all 64 are
// decoded and verified by the round-trip tests.

const (
	vitK      = 7
	vitStates = 1 << (vitK - 1) // 64
	vitG1     = 0o171
	vitG2     = 0o133
	vitSteps  = 64 // trellis steps per block
)

// vitEncodeBits runs the convolutional encoder over info bits (MSB-first
// per byte), returning two channel bits per info bit packed four symbol
// pairs to a byte. The encoder restarts in state 0 every 8 info bytes,
// matching the decoder's independent-block framing. Used by the tests
// and the examples to produce decodable channel data.
func vitEncodeBits(info []byte) []byte {
	out := make([]byte, 0, len(info)*2)
	state := 0 // six most recent bits
	for n, b := range info {
		if n%8 == 0 {
			state = 0 // block boundary
		}
		for i := 7; i >= 0; i-- {
			bit := int(b>>uint(i)) & 1
			out = append(out, vitSymbol(state, bit))
			state = (bit<<6 | state) >> 1
		}
	}
	// Pack 4 symbol pairs per byte, first pair in the high bits.
	packed := make([]byte, (len(out)+3)/4)
	for i, sym := range out {
		packed[i/4] |= sym << uint(6-2*(i%4))
	}
	return packed
}

// vitSymbol is the channel symbol (c1<<1 | c2) the encoder emits when
// input bit b arrives in state s.
func vitSymbol(s, b int) byte {
	reg := b<<6 | s // K=7 register: new bit + 6 state bits
	c1 := bits.OnesCount(uint(reg&vitG1)) & 1
	c2 := bits.OnesCount(uint(reg&vitG2)) & 1
	return byte(c1<<1 | c2)
}

// vitExpect[j] is the symbol expected on the transition from state 2j
// on input 0. Both generators tap the newest and the oldest register
// bit, so flipping either the input bit or the low state bit inverts
// both channel bits: the butterfly's other three transitions expect
// vitExpect[j]^3, vitExpect[j]^3 and vitExpect[j].
var vitExpect = func() (e [vitStates / 2]byte) {
	for j := range e {
		e[j] = vitSymbol(2*j, 0)
		if vitSymbol(2*j+1, 0) != e[j]^3 || vitSymbol(2*j, 1) != e[j]^3 || vitSymbol(2*j+1, 1) != e[j] {
			panic("algos: viterbi butterfly is not symmetric for these generators")
		}
	}
	return e
}()

// vitDecodeBlock decodes one 16-byte channel block into 8 info bytes.
//
// State convention (matching the encoder): state = last six input bits
// with the most recent in bit 5, so the transition on input bit b is
// ns = b<<5 | s>>1. The top bit of any state is therefore the input bit
// that produced it, and each state has exactly two predecessors,
// (ns&31)<<1 and (ns&31)<<1|1 — the classic ACS butterfly: states 2j
// and 2j+1 feed states j (input 0) and j+32 (input 1) and nothing else,
// so one pass over j reads each old metric once.
func vitDecodeBlock(dst, src []byte) {
	// A path metric grows by at most 2 per step, 128 per block; inf
	// only has to exceed that.
	const inf = 1 << 12
	var metric [vitStates]int32
	for s := 1; s < vitStates; s++ {
		metric[s] = inf // encoder starts in state 0
	}
	// survivors[step] bit ns: low bit of the predecessor chosen for ns.
	var survivors [vitSteps]uint64

	for step := 0; step < vitSteps; step++ {
		sym := src[step/4] >> uint(6-2*(step%4)) & 3
		// Branch metric of each possible expected symbol against sym.
		bm := [4]int32{hamming2(0, sym), hamming2(1, sym), hamming2(2, sym), hamming2(3, sym)}
		var next [vitStates]int32
		// Decisions for states j and j+32, shifted in from j = 31 down
		// so that bit j ends up the decision of state j.
		var survLo, survHi uint32
		for j := vitStates/2 - 1; j >= 0; j-- {
			m0, m1 := metric[2*j], metric[2*j+1]
			e := vitExpect[j] & 3
			same, flip := bm[e], bm[e^3]
			// Branch-free add-compare-select (on noise the choice is a
			// coin flip no predictor learns): d is all ones when the odd
			// predecessor is strictly better, so ties keep the even one.
			c0, c1 := m0+same, m1+flip
			d := (c1 - c0) >> 31
			next[j] = c0 + (c1-c0)&d
			survLo = survLo<<1 | uint32(d&1)
			c0, c1 = m0+flip, m1+same
			d = (c1 - c0) >> 31
			next[j+vitStates/2] = c0 + (c1-c0)&d
			survHi = survHi<<1 | uint32(d&1)
		}
		metric = next
		survivors[step] = uint64(survHi)<<32 | uint64(survLo)
	}

	// Terminate at the best end state (the lowest on a tie) and trace
	// back; the info bit of each step is the top bit of the state the
	// path occupies after it.
	best := 0
	for s := 1; s < vitStates; s++ {
		if metric[s] < metric[best] {
			best = s
		}
	}
	var info uint64
	state := best
	for step := vitSteps - 1; step >= 0; step-- {
		info |= uint64(state>>5) << uint(vitSteps-1-step)
		state = (state&31)<<1 | int(survivors[step]>>uint(state)&1)
	}
	binary.BigEndian.PutUint64(dst, info)
}

// hamming2 is the Hamming distance between two 2-bit symbols.
func hamming2(a, b byte) int32 { return int32(bits.OnesCount8((a ^ b) & 3)) }

var vitFn = &Function{
	id:          IDViterbi,
	name:        "viterbi",
	LUTs:        4500, // 64 ACS butterflies + path memory
	InBus:       4,
	OutBus:      4,
	BlockBytes:  16, // 128 channel bits
	outPerBlock: 8,  // 64 info bits
	hwSetup:     16,
	hwPerBlock:  100, // one trellis step per cycle + traceback
	swSetup:     500,
	swPerByte:   800, // 64-state ACS sweep per pair of channel bits
	run: func(out, in []byte) {
		for b := 0; b < len(in)/16; b++ {
			vitDecodeBlock(out[b*8:], in[b*16:])
		}
	},
}

// Viterbi is the K=7 rate-1/2 hard-decision Viterbi decoder core.
func Viterbi() *Function { return vitFn }

// ConvEncode runs the matching K=7 rate-1/2 convolutional encoder over
// info bytes (restarting per 8-byte block, the decoder's framing). The
// encoder is cheap shift-register logic the host runs in software; only
// the decoder is worth offloading. Returned data feeds the viterbi core.
func ConvEncode(info []byte) []byte { return vitEncodeBits(info) }
