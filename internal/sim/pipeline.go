package sim

import "fmt"

// Pipeline computes the critical-path latency of an in-order hardware
// pipeline fed one item at a time. Each stage has a per-item cost that
// the caller supplies already converted to virtual time (so every stage
// may live on its own clock domain), and the classic recurrence
//
//	finish[i][s] = max(finish[i-1][s], finish[i][s-1]) + cost[i][s]
//
// yields the finish time of item i at stage s. The pipeline tracks only
// the previous item's finish times, so feeding n items costs O(n·stages)
// time and O(stages) space.
//
// Attribution keeps Breakdown sums exact: the first item's cost at each
// non-final stage is the unavoidable pipeline fill and is charged to that
// stage's phase; the final stage's total busy time is charged to its
// phase (it is the drain that every item must pass through); whatever
// remains of the critical-path latency is bubble time and is charged to
// PhasePipeStall. The residual is provably non-negative because the
// critical path includes at least the fill of every earlier stage by the
// first item plus the busy time of the final stage.
//
// The per-stage state is held in fixed arrays, so a pipeline that does
// not escape its caller costs no heap allocation.
type Pipeline struct {
	n      int // stages
	phases [MaxPipelineStages]Phase
	finish [MaxPipelineStages]Time // previous item's finish time per stage
	first  [MaxPipelineStages]Time // first item's cost per stage (pipeline fill)
	busy   [MaxPipelineStages]Time // total busy time per stage
	sum    Time                    // sum of every cost fed (sequential-equivalent time)
	items  int
	ends   [pipeRing]Time // ring buffer of recent item completion times
	peak   int            // peak number of items simultaneously in flight
}

// MaxPipelineStages bounds a pipeline's stage count: a card job's
// data-input module, up to eight chained fabric stages and the
// output-collection module.
const MaxPipelineStages = 10

// pipeRing bounds how far back Feed looks when counting items in flight.
// The recurrence lets a fast upstream stage run ahead of a slow drain, so
// more items than stages can be started-but-unfinished; 64 is far beyond
// any plausible run-ahead for the 2–3 stage pipelines modelled here.
const pipeRing = 64

// NewPipeline returns a pipeline whose stages charge the given phases,
// in order. It panics unless 1..MaxPipelineStages stages are given. The
// pipeline is a value, so a caller that keeps it local keeps it on its
// stack.
func NewPipeline(phases ...Phase) Pipeline {
	if len(phases) == 0 || len(phases) > MaxPipelineStages {
		panic(fmt.Sprintf("sim: pipeline needs 1..%d stages, got %d", MaxPipelineStages, len(phases)))
	}
	var p Pipeline
	p.n = copy(p.phases[:], phases)
	return p
}

// Feed pushes one item through the pipeline, one cost per stage. It
// panics if the number of costs does not match the number of stages.
func (p *Pipeline) Feed(costs ...Time) {
	if len(costs) != p.n {
		panic(fmt.Sprintf("sim: pipeline has %d stages, got %d costs", p.n, len(costs)))
	}
	start := p.finish[0] // item enters when stage 0 frees up
	var prev Time
	for s, c := range costs {
		t := prev
		if p.finish[s] > t {
			t = p.finish[s]
		}
		prev = t + c
		p.finish[s] = prev
		p.busy[s] += c
		p.sum += c
		if p.items == 0 {
			p.first[s] = c
		}
	}
	// Items still in flight when this one entered: earlier items whose
	// completion lies after this item's start. Finish times are monotone
	// per stage, so only the most recent pipeRing items can still overlap.
	inFlight := 1
	for i := 0; i < p.items && i < pipeRing; i++ {
		if p.ends[(p.items-1-i)%pipeRing] > start {
			inFlight++
		}
	}
	if inFlight > p.peak {
		p.peak = inFlight
	}
	p.ends[p.items%pipeRing] = prev
	p.items++
}

// Items reports how many items have been fed.
func (p *Pipeline) Items() int { return p.items }

// Latency reports the critical-path time: the finish time of the last
// item at the last stage, i.e. the virtual time the whole load takes.
func (p *Pipeline) Latency() Time { return p.finish[p.n-1] }

// Saved reports how much virtual time the overlap hides relative to
// running every cost back to back (the sequential model).
func (p *Pipeline) Saved() Time { return p.sum - p.Latency() }

// PeakInFlight reports the maximum number of items that were started but
// not yet drained at any instant. It can exceed the stage count when a
// fast upstream stage runs ahead of a slow drain.
func (p *Pipeline) PeakInFlight() int { return p.peak }

// Attribute charges the critical-path latency to br, split across the
// stage phases plus PhasePipeStall, and returns the stall time. The
// charges sum exactly to Latency.
func (p *Pipeline) Attribute(br *Breakdown) Time {
	last := p.n - 1
	var charged Time
	for s := 0; s < last; s++ {
		br.Add(p.phases[s], p.first[s])
		charged += p.first[s]
	}
	br.Add(p.phases[last], p.busy[last])
	charged += p.busy[last]
	stall := p.Latency() - charged
	br.Add(PhasePipeStall, stall)
	return stall
}
