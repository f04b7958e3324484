package bitstream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/fpga"
	"agilefpga/internal/testutil"
)

// TestAssembleGolden pins Assemble's output bytes: the sha256 of the
// stream for every bank function on the benchmark's 32×40 fabric and on a
// geometry whose frames end in a padded word (Rows%4 != 0). The file was
// captured from the word-at-a-time assembler the byte-level one replaced.
func TestAssembleGolden(t *testing.T) {
	got := make(map[string]string)
	for _, g := range []fpga.Geometry{{Rows: 32, Cols: 40}, {Rows: 30, Cols: 48}} {
		for _, f := range algos.Bank() {
			images, err := Synthesize(g, Netlist{FnID: f.ID(), Serial: 1, LUTs: f.LUTs, Seed: f.Seed()})
			if err != nil {
				t.Fatal(err)
			}
			// Scattered placement (stride 7 is coprime to both column
			// counts): no FAR is its predecessor's auto-increment.
			frames := make([]int, len(images))
			for i := range frames {
				frames[i] = (7*i + 3) % g.NumFrames()
			}
			stream, err := Assemble(g, fpga.DefaultIDCode, frames, images)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(stream)
			got[fmt.Sprintf("%dx%d/%s", g.Rows, g.Cols, f.Name())] = hex.EncodeToString(sum[:])
		}
	}
	testutil.GoldenJSON(t, "testdata/assemble_golden.json", got)
}

// TestKeyedAssembleMatchesSummed: folding each frame's precomputed key
// gives the stream summing its bytes gives, on both golden geometries,
// through one Builder reused across loads and geometries.
func TestKeyedAssembleMatchesSummed(t *testing.T) {
	for _, g := range []fpga.Geometry{{Rows: 32, Cols: 40}, {Rows: 30, Cols: 48}} {
		var b Builder
		var scratch []byte
		for _, f := range algos.Bank() {
			images, err := Synthesize(g, Netlist{FnID: f.ID(), Serial: 1, LUTs: f.LUTs, Seed: f.Seed()})
			if err != nil {
				t.Fatal(err)
			}
			frames := make([]int, len(images))
			keys := make([]uint32, len(images))
			for i := range frames {
				frames[i] = (7*i + 3) % g.NumFrames()
				keys[i] = FrameKey(images[i], &scratch)
			}
			want, err := Assemble(g, fpga.DefaultIDCode, frames, images)
			if err != nil {
				t.Fatal(err)
			}
			b.Reset()
			got, err := b.AppendAssemble(g, fpga.DefaultIDCode, frames, images, keys)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%dx%d/%s: keyed stream differs from the summed one", g.Rows, g.Cols, f.Name())
			}
		}
		images := [][]byte{make([]byte, g.FrameBytes())}
		if _, err := b.AppendAssemble(g, fpga.DefaultIDCode, []int{0}, images, []uint32{1, 2}); err == nil {
			t.Errorf("%dx%d: two keys for one frame accepted", g.Rows, g.Cols)
		}
	}
}
