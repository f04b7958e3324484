package mcu

import (
	"errors"
	"fmt"

	"agilefpga/internal/sim"
	"agilefpga/internal/trace"
)

// On-fabric function chaining (DESIGN §15). A chain keeps several bank
// functions resident simultaneously — the non-contiguous placement
// machinery already supports multi-resident fabrics — and feeds stage
// k's output to stage k+1 through the local RAM staging windows, so a
// k-stage pipeline crosses PCI twice (input in, final output out)
// instead of 2k times.

// MaxChainStages bounds a chain's stage list. Mirrored by
// wire.MaxChainStages so a frame that decodes is always executable.
const MaxChainStages = 8

// ErrBadChain reports a stage list outside [2, MaxChainStages].
var ErrBadChain = errors.New("mcu: chain must name 2..8 stages")

// ChainStage reports one stage of a chained execution: its function,
// whether it was already resident, and its share of the chain's cost
// (ROM lookup + configuration in the residency pass, data movement and
// execution in the dataflow pass). Stage costs sum exactly to the
// chain's breakdown.
type ChainStage struct {
	Fn   uint16
	Hit  bool
	Cost sim.Breakdown
	// Flow is the stage's dataflow: Cost charges it streamed, and
	// Cost.Total() + Flow.Hidden() is the stage charged whole-item.
	Flow Flow
}

// ExecuteChain runs fns as one on-card dataflow chain over input. Every
// stage is made resident first — pinned, so loading stage k+1 can never
// evict stage k — then the stages run in order with each intermediate
// result handed to the next stage through local RAM. It returns the
// final output, the whole chain's breakdown (no PCI — the host side
// owns that), and the per-stage attribution. Like Execute's, the output
// is the RAM output window and the attribution the controller's: both
// are valid until the next command.
func (c *Controller) ExecuteChain(fns []uint16, input []byte) ([]byte, sim.Breakdown, []ChainStage, error) {
	var br sim.Breakdown
	spanBase := c.stats.Phases.Total() + c.stats.PrefetchTime
	out, stages, handoff, err := c.executeChain(fns, input, &br)
	c.lastBreakdown = br
	c.lastChain = stages
	c.stats.Phases.AddAll(br)
	if err != nil {
		c.stats.Errors++
		var fn uint16
		if len(fns) > 0 {
			fn = fns[0]
		}
		c.emit(trace.KindError, fn, 0, 0, err.Error())
		c.observeRequest(fn, br, false, err)
		return nil, br, stages, err
	}
	off := spanBase
	for _, st := range stages {
		c.emitSpans(st.Fn, off, st.Cost)
		c.observeRequest(st.Fn, st.Cost, st.Hit, nil)
		off += st.Cost.Total()
	}
	c.stats.ChainRuns++
	c.stats.ChainStages += uint64(len(fns))
	c.stats.ChainHandoffBytes += handoff
	if c.metrics != nil {
		c.metrics.Counter("agile_chain_runs_total").Inc()
		c.metrics.Counter("agile_chain_stages_total").Add(uint64(len(fns)))
		c.metrics.Counter("agile_chain_handoff_bytes_total").Add(handoff)
	}
	return out, br, stages, nil
}

// LastChainStages reports the per-stage attribution of the most recent
// execute command, plain (one stage) or chained — the mailbox path
// cannot return it in registers. Callers hold the owning card's lock,
// like LastBreakdown, and must not keep the slice across commands.
func (c *Controller) LastChainStages() []ChainStage { return c.lastChain }

// executeChain is the two-pass chain executor. Pass 1 resolves every
// stage's ROM record and brings all stages onto the fabric at once;
// pass 2 streams the data through them. handoff counts the intermediate
// bytes moved between stages through RAM — traffic that a staged
// execution would have pushed across PCI twice.
func (c *Controller) executeChain(fns []uint16, input []byte, br *sim.Breakdown) (out []byte, stages []ChainStage, handoff uint64, err error) {
	if len(fns) < 2 || len(fns) > MaxChainStages {
		return nil, nil, 0, fmt.Errorf("%w, got %d", ErrBadChain, len(fns))
	}
	if len(input) == 0 {
		return nil, nil, 0, errors.New("mcu: empty input for chain")
	}
	k := &c.kernel
	// Pin every stage for the duration of the chain: place() hides a
	// pinned victim from the policy instead of evicting it. Hidden
	// functions are re-registered with the policy on the way out, so
	// the replacement machinery sees the same resident set afterwards.
	for _, fn := range fns {
		k.pinned[fn] = true
	}
	defer func() {
		for _, fn := range k.hidden {
			if res, ok := k.table[fn]; ok {
				k.policy.OnInstall(fn, res.lastAccess)
			}
		}
		k.hidden = k.hidden[:0]
		for fn := range k.pinned {
			delete(k.pinned, fn)
		}
	}()

	stages = c.chain[:len(fns)]
	clear(stages)
	// Whatever happens, the chain's breakdown is exactly the sum of its
	// stage costs — error paths included.
	defer func() {
		for i := range stages {
			br.AddAll(stages[i].Cost)
		}
	}()

	// Pass 1: make every stage resident simultaneously. Each stage is
	// one request against the replacement machinery, so Requests, Hits
	// and Misses keep their per-function-activation semantics.
	rows := c.chainRows[:len(fns)]
	for i, fn := range fns {
		stages[i].Fn = fn
		if rows[i], stages[i].Hit, err = c.makeResident(fn, len(input), "chain", &stages[i].Cost); err != nil {
			return nil, stages, handoff, err
		}
	}

	// Pass 2: stream the data through the chain. Stage 0 reads the
	// host's input from the input window; every later stage's
	// data-input module stages its predecessor's output from the output
	// window into the input window — the RAM hand-off that replaces a
	// per-stage PCI round trip.
	cur := input
	for i, fn := range fns {
		sbr := &stages[i].Cost
		// Generation re-check: if anything invalidated the stage since
		// pass 1 (a frame rewrite), the stage reloads before it runs
		// rather than executing stale bits.
		res := k.table[fn]
		if res == nil || !res.inst.Valid() {
			if res != nil {
				c.evict(fn, sbr)
			}
			stages[i].Hit = false
			if res, err = c.load(rows[i].rec, sbr); err != nil {
				return nil, stages, handoff, err
			}
		}
		var staged int
		if cur, staged, stages[i].Flow, err = c.runStage(res, cur, sbr); err != nil {
			return nil, stages, handoff, err
		}
		if i > 0 {
			handoff += uint64(staged)
		}
	}
	return cur, stages, handoff, nil
}
