package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"sort"
	"testing"

	"agilefpga/internal/fpga"
	"agilefpga/internal/sim"
	"agilefpga/internal/testutil"
)

// readerGolden is what one (codec, input) pair must reproduce: the decoded
// bytes and the InputConsumed() mark after every 256-byte window — the
// marks are the ROM-stage costs of the pipelined load model, so they are
// virtual time.
type readerGolden struct {
	Out   string `json:"out"`   // sha256 of the decoded bytes
	Marks string `json:"marks"` // sha256 of the uvarint-coded mark sequence
	N     int    `json:"n"`     // decoded length
	Last  int    `json:"last"`  // final mark
}

// goldenInputs is the corpus plus real frame images: two bank functions
// synthesised for the benchmark's 32×40 fabric.
func goldenInputs(t *testing.T) map[string][]byte {
	t.Helper()
	in := corpus()
	if g := (fpga.Geometry{Rows: 32, Cols: 40}); g.FrameBytes() != testFrameBytes {
		t.Fatalf("test frame size %d, geometry %d", testFrameBytes, g.FrameBytes())
	}
	bank := bankImages(t)
	for _, name := range []string{"fft64", "crc32"} {
		in["image-"+name] = bank[name]
	}
	return in
}

// drain reads r to EOF in reads of at most next() bytes. With clip set no
// read crosses a 256-byte output boundary, so every boundary is observed.
// It returns the output, the InputConsumed() mark at each boundary a read
// ended on (keyed by boundary number), and the final mark.
func drain(t *testing.T, r io.Reader, next func() int, clip bool) (out []byte, marks map[int]int, last int) {
	t.Helper()
	rep := r.(InputReporter)
	marks = make(map[int]int)
	buf := make([]byte, 8192)
	for {
		n := next()
		if room := 256 - len(out)%256; clip && n > room {
			n = room
		}
		k, err := r.Read(buf[:n])
		out = append(out, buf[:k]...)
		if k > 0 && len(out)%256 == 0 {
			marks[len(out)/256] = rep.InputConsumed()
		}
		if errors.Is(err, io.EOF) {
			return out, marks, rep.InputConsumed()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestReaderWindowGolden: the rle, framediff and lz77 readers, drained at
// window sizes 1, 3, 256, 4096 and random, decode the same bytes and
// report the same InputConsumed() at every 256-byte boundary as the
// readers they replaced (testdata/reader_golden.json: rle and framediff
// captured from byte-at-a-time readers, lz77 from its byte-wise match
// copy).
func TestReaderWindowGolden(t *testing.T) {
	got := make(map[string]readerGolden)
	rng := sim.NewRNG(0x60D)
	fixed := func(n int) func() int { return func() int { return n } }
	random := func() int { return 1 + rng.Intn(700) }
	for _, name := range []string{"rle", "framediff", "lz77"} {
		codec, err := New(name, testFrameBytes)
		if err != nil {
			t.Fatal(err)
		}
		inputs := goldenInputs(t)
		inNames := make([]string, 0, len(inputs))
		for inName := range inputs {
			inNames = append(inNames, inName)
		}
		sort.Strings(inNames) // one rng feeds every random window: fix its order
		for _, inName := range inNames {
			key, src := name+"/"+inName, inputs[inName]
			comp, err := codec.Compress(src)
			if err != nil {
				t.Fatal(err)
			}
			open := func() io.Reader {
				r, err := codec.NewReader(comp)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			// The configuration module's own pattern: whole 256-byte windows.
			out, marks, last := drain(t, open(), fixed(256), false)
			if !bytes.Equal(out, src) {
				t.Errorf("%s: window 256 does not round-trip", key)
			}
			var seq []byte
			for w := 1; w <= len(out)/256; w++ {
				seq = binary.AppendUvarint(seq, uint64(marks[w]))
			}
			outSum, seqSum := sha256.Sum256(out), sha256.Sum256(seq)
			got[key] = readerGolden{
				Out: hex.EncodeToString(outSum[:]), Marks: hex.EncodeToString(seqSum[:]),
				N: len(out), Last: last,
			}
			for _, p := range []struct {
				label string
				next  func() int
				clip  bool
			}{
				{"1", fixed(1), false}, {"3", fixed(3), true}, {"4096", fixed(4096), false},
				{"random", random, true}, {"random-unclipped", random, false},
			} {
				o, m, l := drain(t, open(), p.next, p.clip)
				if !bytes.Equal(o, src) {
					t.Errorf("%s: window %s decodes different bytes", key, p.label)
				}
				if l != last {
					t.Errorf("%s: window %s ends at InputConsumed %d, window 256 at %d", key, p.label, l, last)
				}
				for w, mark := range m {
					if mark != marks[w] {
						t.Errorf("%s: window %s reports %d consumed at output %d, window 256 reports %d",
							key, p.label, mark, 256*w, marks[w])
					}
				}
				if p.clip && len(m) != len(marks) {
					t.Errorf("%s: window %s saw %d boundaries, want %d", key, p.label, len(m), len(marks))
				}
			}
		}
	}
	testutil.GoldenJSON(t, "testdata/reader_golden.json", got)
}
