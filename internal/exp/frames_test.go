package exp

import (
	"encoding/binary"
	"fmt"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/bitstream"
	"agilefpga/internal/fpga"
)

// TestBankFrameSimilarity pins how alike the bank's synthesised frames
// are, on the default geometry as InstallBank builds them (serials 1
// to 16 in bank order). Frames of one
// function share a base pattern, so they differ in a few words; frames
// of different functions share almost nothing. Partial reconfiguration
// that rewrites only the words that differ would therefore save little
// across functions — see EXPERIMENTS.md "Deviations and limitations".
func TestBankFrameSimilarity(t *testing.T) {
	g := fpga.DefaultGeometry
	var frames [][]byte
	var owner []uint16
	for i, f := range algos.Bank() {
		images, err := bitstream.Synthesize(g, bitstream.Netlist{FnID: f.ID(), Serial: uint16(i + 1), LUTs: f.LUTs, Seed: f.Seed()})
		if err != nil {
			t.Fatal(err)
		}
		for _, img := range images {
			frames = append(frames, img)
			owner = append(owner, f.ID())
		}
	}
	distinct := make(map[string]bool, len(frames))
	for _, img := range frames {
		distinct[string(img)] = true
	}
	var within, across [2]int // differing words, pairs
	for i := range frames {
		for j := i + 1; j < len(frames); j++ {
			n := differingWords(frames[i], frames[j])
			if owner[i] == owner[j] {
				within[0] += n
				within[1]++
			} else {
				across[0] += n
				across[1]++
			}
		}
	}
	got := fmt.Sprintf("%d frames, %d distinct, %d words each; within %.2f words (%d pairs), across %.2f words (%d pairs)",
		len(frames), len(distinct), g.FrameWords(),
		float64(within[0])/float64(within[1]), within[1],
		float64(across[0])/float64(across[1]), across[1])
	const want = "154 frames, 154 distinct, 168 words each; within 46.38 words (839 pairs), across 164.98 words (10942 pairs)"
	if got != want {
		t.Errorf("bank frames:\n got %s\nwant %s", got, want)
	}
}

// differingWords counts the 32-bit words at which two frame images
// differ, the final word zero-padded as the configuration port pads it.
func differingWords(a, b []byte) int {
	n := 0
	for off := 0; off < len(a); off += 4 {
		var wa, wb [4]byte
		copy(wa[:], a[off:])
		copy(wb[:], b[off:])
		if binary.BigEndian.Uint32(wa[:]) != binary.BigEndian.Uint32(wb[:]) {
			n++
		}
	}
	return n
}
