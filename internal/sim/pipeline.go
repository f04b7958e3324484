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
// time and O(stages) space; FeedN feeds n identical items in
// O(stages²).
//
// Attribution keeps Breakdown sums exact. One stage, the one Attribute
// is told to charge in full, has its total busy time charged to its
// phase: every item passes through it. The stages before it are charged
// the first item's cost (the unavoidable fill), the stages after it the
// last item's cost (the unavoidable drain), and whatever remains of the
// critical-path latency is bubble time, charged to PhasePipeStall. The
// residual is provably non-negative because the first item's path to
// the full stage, every item's pass through it and the last item's path
// out of it together form one path through the recurrence, and the
// critical path is the longest.
//
// The per-stage state is held in fixed arrays, so a pipeline that does
// not escape its caller costs no heap allocation.
type Pipeline struct {
	n      int // stages
	phases [MaxPipelineStages]Phase
	finish [MaxPipelineStages]Time // previous item's finish time per stage
	first  [MaxPipelineStages]Time // first item's cost per stage (pipeline fill)
	last   [MaxPipelineStages]Time // last item's cost per stage (pipeline drain)
	busy   [MaxPipelineStages]Time // total busy time per stage
	sum    Time                    // sum of every cost fed (sequential-equivalent time)
	items  int
	ends   [pipeRing]Time // ring buffer of recorded item completion times
	nends  int            // completion times recorded in ends
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

// Reset empties the pipeline for reuse, keeping its stages, at a cost
// that does not grow with the pipeline's size: a caller that runs one
// pipeline per request keeps one and resets it.
func (p *Pipeline) Reset() {
	clear(p.finish[:p.n])
	clear(p.first[:p.n])
	clear(p.last[:p.n])
	clear(p.busy[:p.n])
	p.sum, p.items, p.nends, p.peak = 0, 0, 0, 0
}

// Feed pushes one item through the pipeline, one cost per stage. It
// panics if the number of costs does not match the number of stages.
func (p *Pipeline) Feed(costs ...Time) {
	p.FeedN(1, costs...)
}

// FeedN pushes n identical items through the pipeline, one cost per
// stage, in closed form: Latency, Saved, Items and every Attribute split
// come out exactly as from n Feed calls, at a cost that does not grow
// with n. Item j of the n (from 1) finishes stage s at
//
//	max over t ≤ s of  finish[t] + Σ cost[t..s] + (j-1)·max cost[t..s]
//
// (finish being the times before the call): the longest path waits out
// the j-1 earlier items at the slowest stage it crosses. PeakInFlight
// sees only the first of the n items enter, and later items see only
// the last one's completion, so after a FeedN with n > 1 it is a lower
// bound on what n Feed calls report. n < 1 feeds nothing. It panics if
// the number of costs does not match the number of stages.
func (p *Pipeline) FeedN(n int, costs ...Time) {
	if len(costs) != p.n {
		panic(fmt.Sprintf("sim: pipeline has %d stages, got %d costs", p.n, len(costs)))
	}
	if n < 1 {
		return
	}
	start := p.finish[0] // the first item enters when stage 0 frees up
	if n == 1 {
		// The recurrence itself.
		var prev Time
		for s, c := range costs {
			prev = max(prev, p.finish[s]) + c
			p.finish[s] = prev
		}
	} else {
		wait := Time(n - 1)
		var next [MaxPipelineStages]Time
		for s := range costs {
			var span, slowest Time
			for t := s; t >= 0; t-- {
				span += costs[t]
				slowest = max(slowest, costs[t])
				next[s] = max(next[s], p.finish[t]+span+wait*slowest)
			}
		}
		copy(p.finish[:p.n], next[:p.n])
	}
	for s, c := range costs {
		p.busy[s] += Time(n) * c
		p.sum += Time(n) * c
		if p.items == 0 {
			p.first[s] = c
		}
		p.last[s] = c
	}
	// Items still in flight when the first one entered: earlier items
	// whose completion lies after its start. Completion times are
	// monotone, so those are the most recent ones; the scan stops at
	// pipeRing.
	inFlight := 1
	for i := 0; i < p.nends && i < pipeRing; i++ {
		if p.ends[(p.nends-1-i)%pipeRing] > start {
			inFlight++
		}
	}
	p.peak = max(p.peak, inFlight)
	p.ends[p.nends%pipeRing] = p.finish[p.n-1]
	p.nends++
	p.items += n
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
// fast upstream stage runs ahead of a slow drain. After a FeedN it is a
// lower bound (see FeedN).
func (p *Pipeline) PeakInFlight() int { return p.peak }

// Attribute charges the critical-path latency to br, split across the
// stage phases plus PhasePipeStall, and returns the stall time: stage
// full is charged its total busy time, the stages before it the first
// item's cost and the stages after it the last item's. The charges sum
// exactly to Latency. It panics if full is not a stage index.
func (p *Pipeline) Attribute(br *Breakdown, full int) Time {
	if full < 0 || full >= p.n {
		panic(fmt.Sprintf("sim: pipeline has %d stages, cannot charge stage %d in full", p.n, full))
	}
	var charged Time
	for s := 0; s < p.n; s++ {
		c := p.busy[s]
		if s < full {
			c = p.first[s]
		} else if s > full {
			c = p.last[s]
		}
		br.Add(p.phases[s], c)
		charged += c
	}
	stall := p.Latency() - charged
	br.Add(PhasePipeStall, stall)
	return stall
}
