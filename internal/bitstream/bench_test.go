package bitstream

import (
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/fpga"
)

// benchLoad is one cold load's worth of frames on the benchmark's 32×40
// fabric: fft64's images and a contiguous placement.
func benchLoad(b *testing.B) (fpga.Geometry, []int, [][]byte) {
	b.Helper()
	g := fpga.Geometry{Rows: 32, Cols: 40}
	f := algos.FFT()
	images, err := Synthesize(g, Netlist{FnID: f.ID(), Serial: 1, LUTs: f.LUTs, Seed: f.Seed()})
	if err != nil {
		b.Fatal(err)
	}
	frames := make([]int, len(images))
	for i := range frames {
		frames[i] = i
	}
	return g, frames, images
}

// BenchmarkAssemble: frame images to port stream, MB/s of stream.
func BenchmarkAssemble(b *testing.B) {
	g, frames, images := benchLoad(b)
	stream, err := Assemble(g, fpga.DefaultIDCode, frames, images)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stream, err = Assemble(g, fpga.DefaultIDCode, frames, images); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortWrite: the same stream through the configuration port in
// one Write, as the mini OS pushes it, MB/s of stream.
func BenchmarkPortWrite(b *testing.B) {
	g, frames, images := benchLoad(b)
	stream, err := Assemble(g, fpga.DefaultIDCode, frames, images)
	if err != nil {
		b.Fatal(err)
	}
	port := fpga.NewFabric(g, fpga.NewRegistry()).Port()
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port.Reset()
		if _, err := port.Write(stream); err != nil {
			b.Fatal(err)
		}
	}
}
