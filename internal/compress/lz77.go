package compress

import (
	"cmp"
	"encoding/binary"
	"io"
	"math/bits"
)

// lz77Codec is greedy sliding-window dictionary coding with a 4 KiB
// window, a hash-chain matcher and a token stream:
//
//	header:  uvarint raw length
//	body:    groups of up to 8 tokens, each group led by a flag byte
//	         (bit i set → token i is a match), tokens in order:
//	         literal = 1 raw byte
//	         match   = length-4 (1 byte) + offset (2 bytes LE, 1-based)
//
// Matches run 4..259 bytes at offsets 1..4096, capturing the repeated
// LUT dictionary patterns that dominate configuration bitstreams.
type lz77Codec struct{}

func (lz77Codec) Name() string { return "lz77" }

// CyclesPerByte: a hardware LZ decoder emits one byte per cycle from both
// literal and match-copy paths; token parsing overlaps.
func (lz77Codec) CyclesPerByte() float64 { return 1.0 }

const (
	lzWindow   = 4096
	lzMinMatch = 4
	lzMaxMatch = lzMinMatch + 255
	lzMaxChain = 64 // hash-chain positions examined per match attempt
)

func lzHash(p []byte) uint32 {
	return (binary.LittleEndian.Uint32(p) * 2654435761) >> 19 // 13-bit bucket
}

func (lz77Codec) Compress(src []byte) ([]byte, error) {
	// Bank images compress about 4×: one allocation holds most blobs.
	out := putUvarint(make([]byte, 0, len(src)/4+16), uint64(len(src)))
	if len(src) == 0 {
		return out, nil
	}
	const nBuckets = 1 << 13
	head := make([]int32, nBuckets)
	prev := make([]int32, len(src))
	for i := range head {
		head[i] = -1
	}
	flagPos, flagBit := 0, 8
	i := 0
	for i < len(src) {
		bestLen, bestOff := 0, 0
		if i+lzMinMatch <= len(src) {
			cand := head[lzHash(src[i:])]
			limit := min(len(src)-i, lzMaxMatch)
			for chain := 0; cand >= 0 && chain < lzMaxChain; chain++ {
				c := int(cand)
				cand = prev[c]
				off := i - c
				if off > lzWindow {
					break
				}
				// A candidate that differs at bestLen cannot beat bestLen.
				if src[c+bestLen] != src[i+bestLen] {
					continue
				}
				l := matchLen(src[c:], src[i:], limit)
				if l > bestLen {
					bestLen, bestOff = l, off
					if l == limit {
						break
					}
				}
			}
		}
		if flagBit == 8 {
			flagPos, flagBit = len(out), 0
			out = append(out, 0)
		}
		if bestLen >= lzMinMatch {
			out[flagPos] |= 1 << uint(flagBit)
			out = append(out, byte(bestLen-lzMinMatch), byte(bestOff), byte(bestOff>>8))
		} else {
			bestLen = 1
			out = append(out, src[i])
		}
		flagBit++
		// Index every position the token covered that has a full hash.
		next := i + bestLen
		for end := min(next, len(src)-lzMinMatch+1); i < end; i++ {
			h := lzHash(src[i:])
			prev[i] = head[h]
			head[h] = int32(i)
		}
		i = next
	}
	return out, nil
}

// matchLen is the length of the common prefix of a and b, at most limit
// (both hold at least limit bytes), compared eight bytes at a time.
func matchLen(a, b []byte, limit int) int {
	l := 0
	for ; l+8 <= limit; l += 8 {
		if x := binary.LittleEndian.Uint64(a[l:]) ^ binary.LittleEndian.Uint64(b[l:]); x != 0 {
			return l + bits.TrailingZeros64(x)/8
		}
	}
	for l < limit && a[l] == b[l] {
		l++
	}
	return l
}

func (c lz77Codec) Decompress(comp []byte) ([]byte, error) {
	return decompressAll(c, comp)
}

func (lz77Codec) NewReader(comp []byte) (io.Reader, error) {
	rawLen, n, err := readUvarint(comp)
	if err != nil {
		return nil, err
	}
	hist := make([]byte, 0, min(rawLen, lzHistCap)) // a short stream never slides
	return &lz77Reader{comp: comp, off: n, remaining: int(rawLen), hist: hist}, nil
}

// lzHistCap bounds the decoder's history buffer: the window, plus as
// much again of decoded output, so the window slides once per 4 KiB.
const lzHistCap = 2 * lzWindow

// lz77Reader incrementally decodes the token stream into a bounded
// history buffer: the window a back-reference may still reach, then the
// decoded bytes Read has not handed out yet.
type lz77Reader struct {
	comp      []byte
	off       int
	remaining int // raw bytes not yet decoded

	hist   []byte // the window, then undelivered output
	served int    // bytes of hist already returned

	flags   byte
	flagBit int
	failed  error
}

// InputConsumed reports the compressed bytes pulled from the token
// stream, header included.
func (r *lz77Reader) InputConsumed() int { return r.off }

// full reports that the next token might not fit in the buffer.
func (r *lz77Reader) full() bool { return len(r.hist)+min(lzMaxMatch, r.remaining) > cap(r.hist) }

// Read decodes exactly as far as filling p needs, as a reader with an
// unbounded history would (so InputConsumed marks do not depend on the
// buffer), handing out decoded bytes and sliding the window down
// whenever the buffer is full.
func (r *lz77Reader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if drop := min(r.served, len(r.hist)-lzWindow); drop > 0 && r.full() {
			r.hist = r.hist[:copy(r.hist, r.hist[drop:])]
			r.served -= drop
		}
		for len(r.hist)-r.served < len(p)-n && r.remaining > 0 && r.failed == nil && !r.full() {
			r.failed = r.decodeToken()
		}
		c := copy(p[n:], r.hist[r.served:])
		if c == 0 {
			break // decoded to the end, or failed
		}
		r.served, n = r.served+c, n+c
	}
	if n == 0 && len(p) > 0 {
		return 0, cmp.Or(r.failed, io.EOF)
	}
	return n, nil
}

func (r *lz77Reader) decodeToken() error {
	if r.flagBit == 0 {
		if r.off >= len(r.comp) {
			return ErrCorrupt
		}
		r.flags = r.comp[r.off]
		r.off++
		r.flagBit = 8
	}
	isMatch := r.flags&1 != 0
	r.flags >>= 1
	r.flagBit--
	if !isMatch {
		if r.off >= len(r.comp) {
			return ErrCorrupt
		}
		r.hist = append(r.hist, r.comp[r.off])
		r.off++
		r.remaining--
		return nil
	}
	if r.off+3 > len(r.comp) {
		return ErrCorrupt
	}
	length := int(r.comp[r.off]) + lzMinMatch
	offset := int(binary.LittleEndian.Uint16(r.comp[r.off+1:]))
	r.off += 3
	if offset == 0 || offset > min(len(r.hist), lzWindow) || length > r.remaining {
		return ErrCorrupt
	}
	r.remaining -= length
	// A match may overlap itself: copy at most offset bytes at a time, so
	// each chunk reads only bytes already written.
	for start := len(r.hist) - offset; length > 0; {
		n := min(offset, length)
		r.hist = append(r.hist, r.hist[start:start+n]...)
		start, length = start+n, length-n
	}
	return nil
}
