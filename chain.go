package agilefpga

import (
	"fmt"
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/cluster"
	"agilefpga/internal/core"
	"agilefpga/internal/sim"
)

// On-fabric function chaining: several bank functions stay resident on
// one card at once and run as a dataflow pipeline, each stage's output
// feeding the next through the card's local RAM. The input crosses PCI
// once on the way in and the final output once on the way out — a
// k-stage pipeline pays 2 PCI transfers instead of 2k — and the output
// is byte-identical to feeding the stages as separate Calls.

// ChainStage reports one stage of a chained call.
type ChainStage struct {
	// Function is the stage's bank function name.
	Function string
	// Hit reports whether the stage was already configured.
	Hit bool
	// Phases is the stage's share of the chain's card time (no PCI).
	Phases map[string]time.Duration
}

// ChainResult reports one chained call.
type ChainResult struct {
	// Output is the final stage's output.
	Output []byte
	// Latency is the full round-trip virtual time, PCI included.
	Latency time.Duration
	// Hits counts stages that were already configured.
	Hits int
	// Phases breaks the whole round trip down; the per-stage shares are
	// in Stages, with PCI charged once at the chain level.
	Phases map[string]time.Duration
	// Stages carries the per-stage attribution, in chain order.
	Stages []ChainStage
}

// phasesOf renders a breakdown as the public phase map.
func phasesOf(br sim.Breakdown) map[string]time.Duration {
	phases := make(map[string]time.Duration, sim.NumPhases)
	for p := 0; p < sim.NumPhases; p++ {
		if t := br.Get(sim.Phase(p)); t != 0 {
			phases[sim.Phase(p).String()] = t.Duration()
		}
	}
	return phases
}

// functionName maps a bank function id to its name.
func functionName(id uint16) string {
	if f, ok := algos.ByID(id); ok {
		return f.Name()
	}
	return "unknown"
}

// chainResultOf converts a core chained-call result to the public form.
func chainResultOf(r *core.CallResult) *ChainResult {
	out := &ChainResult{
		Output:  r.Output,
		Latency: r.Latency.Duration(),
		Phases:  phasesOf(r.Breakdown),
		Stages:  make([]ChainStage, len(r.Stages)),
	}
	for i, st := range r.Stages {
		if st.Hit {
			out.Hits++
		}
		out.Stages[i] = ChainStage{
			Function: functionName(st.Fn),
			Hit:      st.Hit,
			Phases:   phasesOf(st.Breakdown),
		}
	}
	return out
}

// CallChain executes the named functions as one on-card dataflow chain
// over input: stage 0 consumes input, every later stage consumes its
// predecessor's output from local RAM, and only the final output
// returns to the host.
func (cp *CoProcessor) CallChain(names []string, input []byte) (*ChainResult, error) {
	r, err := cp.inner.CallChain(names, input)
	if err != nil {
		return nil, err
	}
	return chainResultOf(r), nil
}

// CallChainBatch executes the chain over every input with inter-item
// overlap: stage k+1 of item N runs while stage k processes item N+1,
// so a warm chain's throughput approaches its slowest stage instead of
// the sum of all stages. Outputs match CallChain item by item; only the
// latency model differs.
func (cp *CoProcessor) CallChainBatch(names []string, inputs [][]byte) (*BatchResult, error) {
	return batchResultOf(cp.inner.CallChainBatch(names, inputs))
}

// lookupStages resolves a chain's function names to bank ids. The
// dispatcher would run a one-stage list as a plain call; the chain
// entry points reject it, like CoProcessor.CallChain.
func lookupStages(names []string) ([]uint16, error) {
	if len(names) < 2 {
		return nil, fmt.Errorf("agilefpga: a chain names at least 2 functions, got %d", len(names))
	}
	fns := make([]uint16, len(names))
	for i, name := range names {
		f, err := algos.ByName(name)
		if err != nil {
			return nil, err
		}
		fns[i] = f.ID()
	}
	return fns, nil
}

// CallChain routes one chained call through the dispatcher as a single
// unit — one routing decision, one card-queue slot, all stages
// co-resident on the serving card. In affinity mode the pin is keyed on
// the whole chain, so repeated chains land where their stages are warm.
func (cl *Cluster) CallChain(names []string, input []byte) (*ChainResult, int, error) {
	fns, err := lookupStages(names)
	if err != nil {
		return nil, -1, err
	}
	res, card, err := cl.inner.CallChain(fns, input)
	if err != nil {
		return nil, card, err
	}
	return chainResultOf(res), card, nil
}

// SubmitChain enqueues one chained call asynchronously; Wait collects
// the final output. Consecutive same-chain submissions on one card are
// coalesced into the pipelined chain-batch path, overlapping stages
// across items.
func (cl *Cluster) SubmitChain(names []string, input []byte) *Pending {
	fns, err := lookupStages(names)
	if err != nil {
		return &Pending{inner: cluster.Failed(err)}
	}
	return &Pending{inner: cl.inner.SubmitJob(cluster.Job{Stages: fns, Inputs: [][]byte{input}, Wait: true})[0]}
}
