package core

import (
	"testing"

	"agilefpga/internal/algos"
)

// TestHotCallAllocs pins the degenerate job — one stage, one item, the
// function resident — at the allocation count the dedicated single-call
// body had before the lanes merged (what BenchmarkHotCall reports): the
// general runner must not pay for a pipeline, a heap stage list or
// per-batch result slices it has no use for.
func TestHotCallAllocs(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.AES128()); err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 4096)
	if _, err := cp.CallID(algos.IDAES128, in); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := cp.CallID(algos.IDAES128, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("warm CallID allocates %.0f times, want at most 12", allocs)
	}
}

// TestCardErrorChargesBus: the bus cycles a job spent before the card
// refused it are charged to the PCI domain whatever the job's shape —
// the single-call body always did, the batch bodies charged nothing.
func TestCardErrorChargesBus(t *testing.T) {
	var spent []uint64
	for _, n := range []int{1, 3} {
		cp := newCP(t, Config{})
		before := cp.pciDom.Cycles()
		// Nothing is installed: the card fails item 0 with "no record".
		items := make([][]byte, n)
		for i := range items {
			items[i] = []byte{1, 2, 3, 4}
		}
		if _, err := cp.CallBatchID(algos.IDCRC32, items); err == nil {
			t.Fatalf("%d-item job on an empty ROM succeeded", n)
		}
		spent = append(spent, cp.pciDom.Cycles()-before)
	}
	if spent[0] == 0 || spent[0] != spent[1] {
		t.Errorf("bus cycles charged on a card error: %d for 1 item, %d for 3 — want equal and non-zero", spent[0], spent[1])
	}
}
