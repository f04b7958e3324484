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
	if stall := p.Attribute(&br, p.n-1); stall != 0 {
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
	stall := p.Attribute(&br, p.n-1)
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
	if stall := p.Attribute(&br, p.n-1); stall != 0 {
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
		p.Attribute(&br, p.n-1)
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

// TestPipelineAttributeFullStage: the stage Attribute charges in full
// takes its busy time, the stages before it the first item's cost and
// the stages after it the last item's, and the stall closes the sum.
func TestPipelineAttributeFullStage(t *testing.T) {
	// Three stages; items (2,5,1), (2,5,1), (1,3,4). finish: item 1 at
	// 2, 7, 8; item 2 at 4, 12, 13; item 3 at 5, 15, 19.
	p := NewPipeline(PhaseDataIn, PhaseExec, PhaseDataOut)
	p.FeedN(2, 2, 5, 1)
	p.Feed(1, 3, 4)
	if p.Latency() != 19 {
		t.Fatalf("Latency = %v, want 19", p.Latency())
	}
	for _, tc := range []struct {
		full          int
		in, exec, out Time
		stall         Time
	}{
		{0, 5, 3, 4, 7},  // data-in busy 5, last exec 3, last out 4
		{1, 2, 13, 4, 0}, // first in 2, exec busy 13, last out 4
		{2, 2, 5, 6, 6},  // first in 2, first exec 5, out busy 6
	} {
		var br Breakdown
		stall := p.Attribute(&br, tc.full)
		if br.Get(PhaseDataIn) != tc.in || br.Get(PhaseExec) != tc.exec || br.Get(PhaseDataOut) != tc.out || stall != tc.stall {
			t.Errorf("full %d: in=%v exec=%v out=%v stall=%v, want %v %v %v %v", tc.full,
				br.Get(PhaseDataIn), br.Get(PhaseExec), br.Get(PhaseDataOut), stall, tc.in, tc.exec, tc.out, tc.stall)
		}
		if br.Total() != p.Latency() {
			t.Errorf("full %d: attribution total %v != latency %v", tc.full, br.Total(), p.Latency())
		}
	}
}

// TestPipelineFeedNMatchesFeeds: from random pipeline states, FeedN(n,
// c) leaves Latency, Saved, Items and every Attribute split exactly as n
// Feed(c) calls do, both right after it and once more items follow.
// PeakInFlight is what FeedN documents: equal for n = 1, and never above
// the n-Feed count otherwise, since FeedN counts only its first item in
// flight. The FeedN side is a pipeline kept across trials and Reset, so
// a reset pipeline must also behave as a new one.
func TestPipelineFeedNMatchesFeeds(t *testing.T) {
	rng := NewRNG(49)
	cost := func() Time { return Time(rng.Uint64() % 20) }
	var kept [6]Pipeline
	for trial := 0; trial < 2000; trial++ {
		stages := 1 + int(rng.Uint64()%5)
		phases := []Phase{PhaseDataIn, PhaseExec, PhaseExec, PhaseExec, PhaseDataOut}[:stages]
		a, b := &kept[stages], NewPipeline(phases...)
		if a.n == 0 {
			*a = NewPipeline(phases...)
		} else {
			a.Reset()
		}
		row := func() []Time {
			r := make([]Time, stages)
			for s := range r {
				r[s] = cost()
			}
			return r
		}
		for i := rng.Uint64() % 6; i > 0; i-- { // a random state before
			r := row()
			a.Feed(r...)
			b.Feed(r...)
		}
		n := int(rng.Uint64() % 80)
		c := row()
		a.FeedN(n, c...)
		for i := 0; i < n; i++ {
			b.Feed(c...)
		}
		same := func(when string) {
			t.Helper()
			if a.Latency() != b.Latency() || a.Saved() != b.Saved() || a.Items() != b.Items() {
				t.Fatalf("trial %d %s (n=%d, %v): FeedN latency %v saved %v items %d; Feeds %v %v %d", trial, when, n, c,
					a.Latency(), a.Saved(), a.Items(), b.Latency(), b.Saved(), b.Items())
			}
			for full := 0; full < stages; full++ {
				var ba, bb Breakdown
				if sa, sb := a.Attribute(&ba, full), b.Attribute(&bb, full); sa != sb || ba != bb {
					t.Fatalf("trial %d %s (n=%d): Attribute(%d) %v stall %v; Feeds %v stall %v", trial, when, n, full, ba, sa, bb, sb)
				}
			}
			if a.PeakInFlight() > b.PeakInFlight() || (n == 1 && a.PeakInFlight() != b.PeakInFlight()) {
				t.Fatalf("trial %d %s (n=%d): PeakInFlight %d, Feeds %d", trial, when, n, a.PeakInFlight(), b.PeakInFlight())
			}
		}
		same("after FeedN")
		for i := rng.Uint64() % 4; i > 0; i-- { // and items after it
			r := row()
			a.Feed(r...)
			b.Feed(r...)
		}
		same("after more Feeds")
	}
}
