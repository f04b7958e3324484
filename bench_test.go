package agilefpga

// Micro-benchmarks of the simulator's hot paths: a resident call,
// image synthesis and each codec's decompressor. The experiment tables
// themselves are pinned by internal/exp's golden files, and the cold
// load is benchmarked in internal/core.

import (
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/compress"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
)

func benchInput(n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = byte(i*31 + 7)
	}
	return in
}

func BenchmarkHotCall(b *testing.B) {
	cp, err := core.New(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cp.Install(algos.AES128()); err != nil {
		b.Fatal(err)
	}
	in := benchInput(4096)
	if _, err := cp.CallID(algos.IDAES128, in); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.CallID(algos.IDAES128, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesize(b *testing.B) {
	g := fpga.DefaultGeometry
	f := algos.Bitonic()
	codec := mustCodec(b, "none")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.BuildImage(g, f, codec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func mustCodec(b *testing.B, name string) compress.Codec {
	b.Helper()
	c, err := compress.New(name, fpga.DefaultGeometry.FrameBytes())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchCodec(b *testing.B, name string) {
	g := fpga.DefaultGeometry
	codec := mustCodec(b, name)
	_, blob, err := core.BuildImage(g, algos.FFT(), codec, 1)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := codec.Decompress(blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressRLE(b *testing.B)       { benchCodec(b, "rle") }
func BenchmarkDecompressLZ77(b *testing.B)      { benchCodec(b, "lz77") }
func BenchmarkDecompressHuffman(b *testing.B)   { benchCodec(b, "huffman") }
func BenchmarkDecompressFrameDiff(b *testing.B) { benchCodec(b, "framediff") }
