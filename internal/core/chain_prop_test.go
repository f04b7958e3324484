package core

import (
	"bytes"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/compress"
	"agilefpga/internal/sim"
)

// TestChainMatchesStagedCalls is the property DESIGN §15 commits to:
// for every chainable pair of bank functions × codec, a warm chained
// call produces output byte-identical to feeding the stages as separate
// Calls, and its virtual round trip never exceeds the staged sum — the
// RAM hand-off must beat bouncing the intermediate across PCI. A pair
// is chainable when the staged path itself succeeds; pairs whose
// intermediate overflows the chain's RAM staging window are skipped
// (and counted, so a model regression can't silently skip everything).
func TestChainMatchesStagedCalls(t *testing.T) {
	for _, codecName := range compress.Names() {
		codecName := codecName
		t.Run(codecName, func(t *testing.T) {
			cp, err := New(Config{Codec: codecName, RAMBytes: 1024 * 1024})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cp.InstallBank(); err != nil {
				t.Fatal(err)
			}
			chained, skipped := 0, 0
			for _, f0 := range algos.Bank() {
				for _, f1 := range algos.Bank() {
					in := make([]byte, f0.BlockBytes)
					for i := range in {
						in[i] = byte(i*13 + 5)
					}
					// Warm both stages so the arms compare steady state
					// (any two bank functions fit the default fabric, so
					// neither warm load can evict the other).
					warm, err := cp.Call(f0.Name(), in)
					if err != nil {
						t.Fatalf("warm %s: %v", f0.Name(), err)
					}
					if len(warm.Output) == 0 {
						skipped++
						continue
					}
					if _, err := cp.Call(f1.Name(), warm.Output); err != nil {
						// Not a chainable pair (e.g. the intermediate
						// exceeds f1's input window); the chain must agree.
						if _, cerr := cp.CallChain([]string{f0.Name(), f1.Name()}, in); cerr == nil {
							t.Errorf("%s->%s: staged rejected (%v) but chain accepted", f0.Name(), f1.Name(), err)
						}
						skipped++
						continue
					}

					// Staged arm, all warm: the intermediate crosses PCI
					// out and back.
					mid, err := cp.Call(f0.Name(), in)
					if err != nil {
						t.Fatalf("staged %s: %v", f0.Name(), err)
					}
					last, err := cp.Call(f1.Name(), mid.Output)
					if err != nil {
						t.Fatalf("staged %s: %v", f1.Name(), err)
					}

					// Chained arm: same stages, intermediate in local RAM.
					cr, err := cp.CallChain([]string{f0.Name(), f1.Name()}, in)
					if err != nil {
						skipped++
						continue
					}
					chained++
					if !bytes.Equal(cr.Output, last.Output) {
						t.Errorf("%s->%s: chained output diverges from staged", f0.Name(), f1.Name())
					}
					staged := mid.Latency + last.Latency
					if cr.Latency > staged {
						t.Errorf("%s->%s: chain %v slower than staged %v",
							f0.Name(), f1.Name(), cr.Latency, staged)
					}
					// PCI crosses twice, not four times: the chain's PCI
					// share must undercut the staged arms'.
					if cr.Breakdown.Get(sim.PhasePCI) >= mid.Breakdown.Get(sim.PhasePCI)+last.Breakdown.Get(sim.PhasePCI) {
						t.Errorf("%s->%s: chain PCI %v not below staged PCI %v", f0.Name(), f1.Name(),
							cr.Breakdown.Get(sim.PhasePCI),
							mid.Breakdown.Get(sim.PhasePCI)+last.Breakdown.Get(sim.PhasePCI))
					}
					if len(cr.Stages) != 2 {
						t.Fatalf("%s->%s: %d stage attributions", f0.Name(), f1.Name(), len(cr.Stages))
					}
					// Stage breakdowns sum to the chain minus PCI, and a
					// warm stage reads no ROM: its record comes from its
					// Frame Replacement Table row.
					var sum sim.Breakdown
					for _, st := range cr.Stages {
						sum.AddAll(st.Breakdown)
						if !st.Hit || st.Breakdown.Get(sim.PhaseROM) != 0 {
							t.Errorf("%s->%s: warm stage %d hit=%v, ROM phase %v, want a hit with none",
								f0.Name(), f1.Name(), st.Fn, st.Hit, st.Breakdown.Get(sim.PhaseROM))
						}
					}
					if cr.Breakdown.Total() != cr.Latency {
						t.Errorf("%s->%s: breakdown %v does not sum to latency %v", f0.Name(), f1.Name(), cr.Breakdown.Total(), cr.Latency)
					}
					if sum.Total() != cr.Latency-cr.Breakdown.Get(sim.PhasePCI) {
						t.Errorf("%s->%s: stage costs %v don't sum to chain %v minus PCI %v",
							f0.Name(), f1.Name(), sum.Total(), cr.Latency, cr.Breakdown.Get(sim.PhasePCI))
					}
				}
			}
			if chained < len(algos.Bank())*len(algos.Bank())/2 {
				t.Errorf("only %d pairs chained, %d skipped — chainability collapsed", chained, skipped)
			}
			if err := cp.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestChainBatchMatchesChain pins the batch path to the synchronous
// one: same outputs item by item, batch completion no later than the
// sequential sum, and overlap accounting consistent.
func TestChainBatchMatchesChain(t *testing.T) {
	cp, err := New(Config{RAMBytes: 1024 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.InstallBank(); err != nil {
		t.Fatal(err)
	}
	chain := []string{"sha256", "aes128"}
	inputs := make([][]byte, 12)
	for i := range inputs {
		inputs[i] = make([]byte, 256)
		for j := range inputs[i] {
			inputs[i][j] = byte(i*31 + j)
		}
	}
	want := make([][]byte, len(inputs))
	for i, in := range inputs {
		cr, err := cp.CallChain(chain, in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = cr.Output
	}
	b, err := cp.CallChainBatch(chain, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		if !bytes.Equal(b.Outputs[i], want[i]) {
			t.Errorf("item %d: batch output diverges from synchronous chain", i)
		}
	}
	if b.Latency > b.SequentialLatency {
		t.Errorf("batch %v slower than its own sequential model %v", b.Latency, b.SequentialLatency)
	}
	if b.OverlapSaved == 0 {
		t.Error("warm 12-item chain batch saved nothing — inter-item overlap not engaged")
	}
	if b.Hits != len(inputs) {
		t.Errorf("%d/%d warm items hit", b.Hits, len(inputs))
	}
	if len(b.Results) != len(inputs) {
		t.Fatalf("%d per-item results", len(b.Results))
	}
	for i, r := range b.Results {
		if !bytes.Equal(r.Output, want[i]) {
			t.Errorf("item %d: per-item result output diverges", i)
		}
		if r.Breakdown.Get(sim.PhasePCI) == 0 {
			t.Errorf("item %d: no PCI attributed", i)
		}
	}
	if err := cp.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestChainRejectsBadStageLists pins the validation edges shared with
// the wire layer: stage counts outside [2, MaxChainStages], unknown
// functions, and empty input.
func TestChainRejectsBadStageLists(t *testing.T) {
	cp, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.InstallBank(); err != nil {
		t.Fatal(err)
	}
	in := []byte{1, 2, 3, 4}
	if _, err := cp.CallChain([]string{"sha256"}, in); err == nil {
		t.Error("1-stage chain accepted")
	}
	long := make([]string, 9)
	for i := range long {
		long[i] = "sha256"
	}
	if _, err := cp.CallChain(long, in); err == nil {
		t.Error("9-stage chain accepted")
	}
	if _, err := cp.CallChain([]string{"sha256", "nope"}, in); err == nil {
		t.Error("unknown stage accepted")
	}
	if _, err := cp.CallChain([]string{"sha256", "aes128"}, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := cp.CallChainBatch([]string{"sha256", "aes128"}, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := cp.CallChainBatch([]string{"sha256", "aes128"}, [][]byte{{1}, nil}); err == nil {
		t.Error("empty batch item accepted")
	}
}
