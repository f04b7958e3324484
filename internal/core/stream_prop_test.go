package core

import (
	"bytes"
	"fmt"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/sim"
)

// TestBatchNeverLosesToCalls holds the batch rule (DESIGN §12) to its
// invariants for every bank function at 64 B to 4 KiB and n ∈ {2, 4,
// 16} resident items: the batch is no slower than n one-item calls, it
// is no slower than its own serial reference, the overlap it reports
// is within that reference, and its outputs are the host reference's.
func TestBatchNeverLosesToCalls(t *testing.T) {
	rng := sim.NewRNG(49)
	for _, f := range algos.Bank() {
		cp := newCP(t, Config{RAMBytes: 256 * 1024})
		if _, err := cp.Install(f); err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{64, 256, 1024, 4096} {
			for _, n := range []int{2, 4, 16} {
				t.Run(fmt.Sprintf("%s/%dB/n%d", f.Name(), size, n), func(t *testing.T) {
					items := make([][]byte, n)
					for i := range items {
						items[i] = make([]byte, size)
						for j := range items[i] {
							items[i][j] = byte(rng.Uint64())
						}
					}
					checkBatch(t, cp, f, items)
				})
			}
		}
	}
}

// TestBatchRS255FourKiBPair is the case that fixed the batch rule: when
// every item entered the cross-item pipeline whole-item while one-item
// calls streamed, two resident 4 KiB rs255 items took 398.46 µs as a
// batch and 2 × 178.12 µs as two calls.
func TestBatchRS255FourKiBPair(t *testing.T) {
	cp := newCP(t, Config{})
	if _, err := cp.Install(algos.RS255()); err != nil {
		t.Fatal(err)
	}
	items := [][]byte{bytes.Repeat([]byte{0x5a}, 4096), bytes.Repeat([]byte{0xa5}, 4096)}
	checkBatch(t, cp, algos.RS255(), items)
}

// checkBatch runs items as one batch of resident calls and checks it
// against one call of the first item.
func checkBatch(t *testing.T, cp *CoProcessor, f *algos.Function, items [][]byte) {
	t.Helper()
	if _, err := cp.CallID(f.ID(), items[0]); err != nil { // make it resident
		t.Fatal(err)
	}
	one, err := cp.CallID(f.ID(), items[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.CallBatchID(f.ID(), items)
	if err != nil {
		t.Fatal(err)
	}
	n := sim.Time(len(items))
	if b.Latency > n*one.Latency {
		t.Errorf("batch of %d: %v, above %d one-item calls' %v", n, b.Latency, n, n*one.Latency)
	}
	if b.Latency > b.SequentialLatency || b.OverlapSaved > b.SequentialLatency {
		t.Errorf("batch %v, overlap saved %v, sequential %v", b.Latency, b.OverlapSaved, b.SequentialLatency)
	}
	for i, in := range items {
		want, err := f.Exec(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Outputs[i], want) {
			t.Fatalf("item %d differs from the reference", i)
		}
	}
}
