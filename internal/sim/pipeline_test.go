package sim

import (
	"testing"
	"testing/quick"
)

func TestPipelineSingleStageIsSequential(t *testing.T) {
	p := NewPipeline(PhaseConfigure)
	var want Time
	for _, c := range []Time{5, 0, 12, 3} {
		p.Feed(c)
		want += c
	}
	if p.Latency() != want {
		t.Errorf("Latency = %v, want %v", p.Latency(), want)
	}
	if p.Saved() != 0 {
		t.Errorf("single stage saved %v, want 0", p.Saved())
	}
	var br Breakdown
	if stall := p.Attribute(&br); stall != 0 {
		t.Errorf("stall = %v, want 0", stall)
	}
	if br.Get(PhaseConfigure) != want {
		t.Errorf("configure = %v, want %v", br.Get(PhaseConfigure), want)
	}
}

func TestPipelineKnownSchedule(t *testing.T) {
	// Two stages, costs (3,1), (3,1), (3,1): stage 0 is the bottleneck.
	// finish[i][0] = 3(i+1); finish[i][1] = 3(i+1)+1 → latency 10.
	p := NewPipeline(PhaseROM, PhaseConfigure)
	for i := 0; i < 3; i++ {
		p.Feed(3, 1)
	}
	if p.Latency() != 10 {
		t.Fatalf("Latency = %v, want 10", p.Latency())
	}
	if p.Saved() != 2 {
		t.Errorf("Saved = %v, want 2", p.Saved())
	}
	var br Breakdown
	stall := p.Attribute(&br)
	// First ROM cost (3) + total port busy (3) + stall (4) = 10.
	if br.Get(PhaseROM) != 3 || br.Get(PhaseConfigure) != 3 || stall != 4 {
		t.Errorf("attribution rom=%v cfg=%v stall=%v", br.Get(PhaseROM), br.Get(PhaseConfigure), stall)
	}
	if br.Total() != p.Latency() {
		t.Errorf("attribution total %v != latency %v", br.Total(), p.Latency())
	}
}

func TestPipelineDrainBound(t *testing.T) {
	// Final stage dominates: latency = fill + total drain busy, no stall.
	p := NewPipeline(PhaseROM, PhaseDecompress, PhaseConfigure)
	for i := 0; i < 5; i++ {
		p.Feed(1, 1, 10)
	}
	if want := Time(1 + 1 + 50); p.Latency() != want {
		t.Fatalf("Latency = %v, want %v", p.Latency(), want)
	}
	var br Breakdown
	if stall := p.Attribute(&br); stall != 0 {
		t.Errorf("stall = %v, want 0 when drain-bound", stall)
	}
	if p.PeakInFlight() < 2 {
		t.Errorf("PeakInFlight = %d, want >= 2", p.PeakInFlight())
	}
}

// TestPipelineInvariants checks, for arbitrary 3-stage cost matrices:
// latency never exceeds the sequential sum, never undercuts any single
// stage's busy time, and attribution sums exactly to latency.
func TestPipelineInvariants(t *testing.T) {
	f := func(costs [][3]uint16) bool {
		if len(costs) == 0 {
			return true
		}
		p := NewPipeline(PhaseROM, PhaseDecompress, PhaseConfigure)
		var sum Time
		var busy [3]Time
		for _, row := range costs {
			p.Feed(Time(row[0]), Time(row[1]), Time(row[2]))
			for s, c := range row {
				sum += Time(c)
				busy[s] += Time(c)
			}
		}
		if p.Latency() > sum {
			return false
		}
		for _, b := range busy {
			if p.Latency() < b {
				return false
			}
		}
		if p.Saved() != sum-p.Latency() {
			return false
		}
		var br Breakdown
		p.Attribute(&br)
		return br.Total() == p.Latency()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPipelineFeedArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Feed with wrong arity did not panic")
		}
	}()
	p := NewPipeline(PhaseROM, PhaseConfigure)
	p.Feed(1)
}
