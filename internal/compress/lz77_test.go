package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/bitstream"
	"agilefpga/internal/fpga"
	"agilefpga/internal/testutil"
)

// bankImages synthesises every bank function's raw configuration image
// for the benchmark's 32×40 fabric, as the host driver builds it before
// compressing (serial 1).
func bankImages(tb testing.TB) map[string][]byte {
	tb.Helper()
	g := fpga.Geometry{Rows: 32, Cols: 40}
	in := make(map[string][]byte)
	for _, f := range algos.Bank() {
		images, err := bitstream.Synthesize(g, bitstream.Netlist{FnID: f.ID(), Serial: 1, LUTs: f.LUTs, Seed: f.Seed()})
		if err != nil {
			tb.Fatal(err)
		}
		in[f.Name()] = bytes.Join(images, nil)
	}
	return in
}

// blobGolden pins one compressed blob: its sha256 and length.
type blobGolden struct {
	Sum string `json:"sum"`
	N   int    `json:"n"`
}

// TestLZ77BlobGolden pins the lz77 encoder's bytes, not just its sizes:
// every bank function's blob at 32×40 and every corpus input. The
// encoder's matcher is a search heuristic, so a faster search that picks
// a different (equally valid) match would pass every round-trip test and
// still move each table built on the blobs' sizes and ROM streaming.
func TestLZ77BlobGolden(t *testing.T) {
	inputs := bankImages(t)
	for name, src := range corpus() {
		inputs["corpus/"+name] = src
	}
	got := make(map[string]blobGolden)
	for name, src := range inputs {
		comp, err := lz77Codec{}.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(comp)
		got[name] = blobGolden{Sum: hex.EncodeToString(sum[:]), N: len(comp)}
	}
	testutil.GoldenJSON(t, "testdata/lz77_blob_golden.json", got)
}

// TestLZ77WindowedDecodeAllocs pins what decoding the whole 32×40 bank
// window by window, as a card's Download does, allocates: per blob the
// reader and one history buffer of at most lzHistCap bytes, however long
// the decoded stream.
func TestLZ77WindowedDecodeAllocs(t *testing.T) {
	var blobs [][]byte
	for _, img := range bankImages(t) {
		comp, err := lz77Codec{}.Compress(img)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, comp)
	}
	win := make([]byte, 256)
	decode := func() {
		for _, comp := range blobs {
			r, err := lz77Codec{}.NewReader(comp)
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, err := r.Read(win)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	allocs := testing.AllocsPerRun(5, decode)
	if want := float64(2 * len(blobs)); allocs > want {
		t.Errorf("a windowed decode of the bank allocates %.0f times, want at most %.0f (2 per blob)", allocs, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if want := uint64(len(blobs) * (lzHistCap + 256)); got > want {
		t.Errorf("a windowed decode of the bank allocates %d bytes, want at most %d (lzHistCap and the reader per blob)", got, want)
	}
	t.Logf("%d blobs: %.0f allocations, %d bytes", len(blobs), allocs, got)
}

// BenchmarkCompress encodes the whole 32×40 bank once per op under each
// codec: the host-side set-up cost of building a card's ROM images.
func BenchmarkCompress(b *testing.B) {
	images := bankImages(b)
	var raw int64
	for _, img := range images {
		raw += int64(len(img))
	}
	for _, name := range Names() {
		c, err := New(name, fpga.Geometry{Rows: 32, Cols: 40}.FrameBytes())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, img := range images {
					if _, err := c.Compress(img); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDecompress decodes the whole 32×40 bank once per op under
// each codec: the host-side cost of a card's Download.
func BenchmarkDecompress(b *testing.B) {
	images := bankImages(b)
	for _, name := range Names() {
		c, err := New(name, fpga.Geometry{Rows: 32, Cols: 40}.FrameBytes())
		if err != nil {
			b.Fatal(err)
		}
		var blobs [][]byte
		var raw int64
		for _, img := range images {
			comp, err := c.Compress(img)
			if err != nil {
				b.Fatal(err)
			}
			blobs, raw = append(blobs, comp), raw+int64(len(img))
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, comp := range blobs {
					if _, err := c.Decompress(comp); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
