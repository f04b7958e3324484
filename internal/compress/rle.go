package compress

import "io"

// rleCodec is escape-free byte run-length encoding. The stream is a
// sequence of chunks, each led by a control byte c:
//
//	c < 0x80:  literal run — the next c+1 bytes are copied verbatim
//	c >= 0x80: repeat run — the next byte repeats (c-0x80)+2 times
//
// Runs of two equal bytes already pay for themselves, so the encoder
// switches to repeat runs at length >= 3 (a 2-run inside literals is
// cheaper than breaking the literal chunk).
type rleCodec struct{}

func (rleCodec) Name() string           { return "rle" }
func (rleCodec) CyclesPerByte() float64 { return 1.0 }

const (
	rleMaxLiteral = 0x80     // longest literal chunk
	rleMaxRepeat  = 0x7F + 2 // longest repeat chunk (129)
)

func (rleCodec) Compress(src []byte) ([]byte, error) {
	var out []byte
	i := 0
	litStart := 0
	flushLit := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > rleMaxLiteral {
				n = rleMaxLiteral
			}
			out = append(out, byte(n-1))
			out = append(out, src[litStart:litStart+n]...)
			litStart += n
		}
	}
	for i < len(src) {
		run := 1
		for i+run < len(src) && src[i+run] == src[i] && run < rleMaxRepeat {
			run++
		}
		if run >= 3 {
			flushLit(i)
			out = append(out, 0x80+byte(run-2), src[i])
			i += run
			litStart = i
		} else {
			i += run
		}
	}
	flushLit(len(src))
	return out, nil
}

func (c rleCodec) Decompress(comp []byte) ([]byte, error) {
	return decompressAll(c, comp)
}

func (rleCodec) NewReader(comp []byte) (io.Reader, error) {
	return &rleReader{comp: comp}, nil
}

// rleReader incrementally decodes an RLE stream.
type rleReader struct {
	comp []byte
	off  int

	// pending run state
	lit    []byte // literal bytes still to deliver
	repB   byte
	repN   int
	failed error
}

// InputConsumed reports the compressed bytes pulled from the stream. A
// chunk is consumed when its header is parsed, so pending run output may
// attribute up to one chunk to the earlier window.
func (r *rleReader) InputConsumed() int { return r.off }

func (r *rleReader) Read(p []byte) (int, error) {
	if r.failed != nil {
		return 0, r.failed
	}
	n := 0
	for n < len(p) {
		if len(r.lit) > 0 {
			c := copy(p[n:], r.lit)
			r.lit = r.lit[c:]
			n += c
			continue
		}
		if r.repN > 0 {
			run := p[n : n+min(r.repN, len(p)-n)]
			for i := range run {
				run[i] = r.repB
			}
			n += len(run)
			r.repN -= len(run)
			continue
		}
		if r.off >= len(r.comp) {
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		ctrl := r.comp[r.off]
		r.off++
		if ctrl < 0x80 {
			cnt := int(ctrl) + 1
			if r.off+cnt > len(r.comp) {
				r.failed = ErrCorrupt
				return n, r.failed
			}
			r.lit = r.comp[r.off : r.off+cnt]
			r.off += cnt
		} else {
			if r.off >= len(r.comp) {
				r.failed = ErrCorrupt
				return n, r.failed
			}
			r.repB = r.comp[r.off]
			r.off++
			r.repN = int(ctrl-0x80) + 2
		}
	}
	return n, nil
}
