package algos

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"agilefpga/internal/sim"
)

// viterbiGoldenChannel is the fixed channel stream whose decoding is
// pinned in testdata/viterbi_golden.hex: 1000 encoded blocks with 0, 1
// or 2 flipped channel bits, then 200 blocks of pure noise — the noise
// is where equal path metrics are common, so it pins the tie-breaking
// (lower predecessor, lowest best end state) as well as the metrics.
func viterbiGoldenChannel() []byte {
	rng := sim.NewRNG(1600)
	var channel []byte
	for i := 0; i < 1000; i++ {
		info := make([]byte, 8)
		for j := range info {
			info[j] = byte(rng.Uint64())
		}
		block := vitEncodeBits(info)
		for _, bit := range perm(rng, 128)[:i%3] {
			block[bit/8] ^= 0x80 >> uint(bit%8)
		}
		channel = append(channel, block...)
	}
	for i := 0; i < 200*16; i++ {
		channel = append(channel, byte(rng.Uint64()))
	}
	return channel
}

// TestViterbiMatchesGolden holds the decoder to the outputs the
// per-block-table, int-metric decoder it replaced produced on the same
// stream (one hex line per 8-byte decoded block).
func TestViterbiMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/viterbi_golden.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.ReplaceAll(string(raw), "\n", ""))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Viterbi().Exec(viterbiGoldenChannel())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d bytes, golden has %d", len(got), len(want))
	}
	for b := 0; b < len(got); b += 8 {
		if !bytes.Equal(got[b:b+8], want[b:b+8]) {
			t.Fatalf("block %d decodes to %x, golden %x", b/8, got[b:b+8], want[b:b+8])
		}
	}
}

// perm returns a pseudo-random permutation of [0, n) (Fisher–Yates).
func perm(r *sim.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
