package core

import (
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/mcu"
	"agilefpga/internal/memory"
	"agilefpga/internal/sim"
)

// TestHotCallAllocs pins the degenerate job — one stage, one item, the
// function resident — at what the caller keeps: the Result, the host's
// output buffer and the function's output, plus the behavioural core's
// padded copy of an input that is not a whole number of its blocks
// (4 KiB of modexp128's 48-byte blocks).
// The general runner must not pay for a pipeline, a heap stage list or
// per-batch result slices it has no use for, the PCI register accesses
// must not allocate, and the card reads its staged input in place. Nor
// may the count depend on the function's ROM slot: the record lookup is
// charged as a scan of the table, but the host reads the record from an
// index.
func TestHotCallAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		only *algos.Function // installed alone; nil installs the whole bank
		fn   uint16          // called warm
		slot int             // fn's ROM slot
		max  float64         // allocations per warm call
	}{
		{"aes128 alone", algos.AES128(), algos.IDAES128, 0, 3},
		{"modexp128 in the bank", nil, algos.IDModExp128, 15, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := newCP(t, Config{})
			var err error
			if tc.only != nil {
				_, err = cp.Install(tc.only)
			} else {
				_, err = cp.InstallBank()
			}
			if err != nil {
				t.Fatal(err)
			}
			in := make([]byte, 4096)
			if _, err := cp.CallID(tc.fn, in); err != nil { // warm
				t.Fatal(err)
			}
			res, err := cp.CallID(tc.fn, in)
			if err != nil {
				t.Fatal(err)
			}
			scan := sim.NewDomain("mcu", mcu.MCUHz).Span(memory.ReadCycles((tc.slot + 1) * memory.RecordBytes))
			if got := res.Breakdown.Get(sim.PhaseROM); got != scan {
				t.Errorf("warm call's ROM phase = %v, want the %d-record scan's %v", got, tc.slot+1, scan)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := cp.CallID(tc.fn, in); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.max {
				t.Errorf("warm CallID allocates %.0f times, want at most %.0f", allocs, tc.max)
			}
		})
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
