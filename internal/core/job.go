package core

import (
	"errors"
	"fmt"
	"strings"

	"agilefpga/internal/algos"
	"agilefpga/internal/mcu"
	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
)

// The host driver has one request path (DESIGN §9): a Job — a stage
// list applied to a list of items — runs through one mailbox protocol
// and one timing model. A plain call is the one-stage, one-item job; a
// batch has more items, a chain more stages (intermediate results stay
// in card RAM and cross PCI never), a chain batch both.

// Job is one unit of card work.
type Job struct {
	// Stages names 1..mcu.MaxChainStages functions; with more than one,
	// stage s's output feeds stage s+1 through the card's local RAM.
	Stages []uint16
	// Items are the inputs, each run through every stage in order.
	Items [][]byte
	// Dsts, when set, gives each item the storage its output is read
	// into: item i's output is Dsts[i][:n] whenever that capacity holds
	// its n bytes, and fresh storage otherwise (or when Dsts has no
	// entry i). A dispatcher that keeps one buffer per request thus
	// reads every output without allocating.
	Dsts [][]byte
	// TraceID and SpanID, when non-zero, stamp the card-log events the
	// job emits with the owning request's distributed-trace identity (by
	// convention the first traced member's when items were coalesced).
	// The tag is scoped by the card lock, so concurrent untraced jobs
	// never inherit it.
	TraceID, SpanID uint64
}

// StageResult reports one stage of a chained item.
type StageResult struct {
	Fn uint16
	// Hit reports whether the stage was already on the fabric.
	Hit bool
	// Breakdown is the stage's share of the item's card time (no PCI).
	Breakdown sim.Breakdown
}

// CallResult reports one item's round trip.
type CallResult struct {
	// Output is the final stage's output, byte-identical to feeding the
	// stages as separate Calls.
	Output []byte
	// Breakdown covers the whole round trip: every stage's card phases
	// plus PhasePCI, charged once for input-in and output-out.
	Breakdown sim.Breakdown
	// Latency is Breakdown.Total().
	Latency sim.Time
	// Hit reports whether every stage was already on the fabric.
	Hit bool
	// Stages carries the per-stage attribution of a chained item (nil
	// for a one-stage job, whose one stage is the whole card time);
	// stage breakdowns sum to Breakdown minus the PCI phase.
	Stages []StageResult
}

// Result reports one job.
type Result struct {
	Outputs [][]byte
	// Latency is the job's completion time with items pipelined: the
	// host streams item N+1's input (and collects item N-1's output)
	// while the card works on item N. The PCI bus is half-duplex, so all
	// bus phases share one resource; the card is the other. The job
	// finishes no earlier than either resource's total demand, plus the
	// unavoidable serial edges (first input cannot overlap anything, nor
	// can the last output).
	Latency sim.Time
	// SequentialLatency is what the same items cost as independent
	// synchronous jobs — the baseline batching is measured against.
	SequentialLatency sim.Time
	// OverlapSaved is the card time the card-side pipeline hid (DESIGN
	// §12): the data-input module stages item N+1 while the fabric runs
	// N and the output-collection module drains N-1, and a chain's
	// simultaneously resident stages work on different items at once,
	// so the card's critical path undercuts the sum of its per-item
	// times by this much. Zero for one item.
	OverlapSaved sim.Time
	// Hits counts items served without reconfiguration.
	Hits int
	// Results carries the per-item round trips, for callers that fan a
	// job back out to individual requests (the cluster's coalescer).
	Results []CallResult

	// single backs Outputs and Results of a one-item job, so the plain
	// call needs no storage beyond the Result itself.
	single struct {
		out [1][]byte
		res [1]CallResult
	}
	// stages backs every item's CallResult.Stages in a chained job, k
	// apiece, kept across jobs like Outputs and Results.
	stages []StageResult
}

// reset empties r for a job of n items, keeping whatever item storage
// it already has room in. It assigns the reported fields one by one: a
// whole-struct assignment would also copy the inline single storage on
// every call. So a new exported field of Result must be cleared here;
// TestResetClearsEveryExportedField fails until it is.
func (r *Result) reset(n int) {
	outs, items := r.Outputs[:0], r.Results[:0]
	switch {
	case cap(items) >= n:
	case n == 1:
		outs, items = r.single.out[:0], r.single.res[:0]
	default:
		outs, items = make([][]byte, 0, n), make([]CallResult, 0, n)
	}
	r.Outputs, r.Results = outs, items
	r.Latency, r.SequentialLatency, r.OverlapSaved, r.Hits = 0, 0, 0, 0
}

// ErrInputTooLarge reports an item that does not fit the card's staging
// windows: its input, or the output of one of its stages, padded to the
// stage's bus width. It is a property of the item alone: dispatchers
// test for it (CheckInput) before an item can join other clients' work.
var ErrInputTooLarge = errors.New("core: item exceeds the card's staging window")

var errEmptyInput = errors.New("core: empty input")

// CheckInput is the one place an item is validated against the card:
// non-empty, and every stage's input and output, padded to its bus
// widths as the card's data modules stage them, within the RAM staging
// windows. A stage the bank does not know is left for the card to
// refuse.
func (cp *CoProcessor) CheckInput(stages []uint16, input []byte) error {
	if len(input) == 0 {
		return errEmptyInput
	}
	win := cp.ctrl.InWindowBytes() // the output window is the same size
	n := len(input)
	if n > win {
		return fmt.Errorf("%w: %d-byte input, window %d", ErrInputTooLarge, n, win)
	}
	for _, fn := range stages {
		f, ok := algos.ByID(fn)
		if !ok {
			return nil
		}
		in := mcu.Padded(n, int(f.InBus))
		if in > win {
			return fmt.Errorf("%w: %s input of %d bytes, window %d", ErrInputTooLarge, f.Name(), in, win)
		}
		n = f.OutputLen(in)
		if out := mcu.Padded(n, int(f.OutBus)); out > win {
			return fmt.Errorf("%w: %s output of %d bytes, window %d", ErrInputTooLarge, f.Name(), out, win)
		}
	}
	return nil
}

// Run executes job on the card into res, which the caller supplies:
// a dispatcher reuses one Result across jobs, so a served item costs no
// result allocation. res is overwritten, including on error. Run is the
// only entry that takes a trace tag; Call, CallBatch, CallChain and
// CallChainBatch are shapes of it.
func (cp *CoProcessor) Run(job Job, res *Result) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.ctrl.SetRequestTrace(job.TraceID, job.SpanID)
	defer cp.ctrl.SetRequestTrace(0, 0)
	return cp.run(job, res)
}

// runJob is Run into fresh storage, for the entry points that hand the
// Result to their caller.
func (cp *CoProcessor) runJob(job Job) (*Result, error) {
	res := new(Result)
	if err := cp.Run(job, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runNamed is runJob with the stages given by name.
func (cp *CoProcessor) runNamed(names []string, items [][]byte) (*Result, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	var buf [mcu.MaxChainStages]uint16
	stages := buf[:0]
	for _, name := range names {
		f, err := cp.lookup(name)
		if err != nil {
			return nil, err
		}
		stages = append(stages, f.ID())
	}
	res := new(Result)
	if err := cp.run(Job{Stages: stages, Items: items}, res); err != nil {
		return nil, err
	}
	return res, nil
}

// run is the host protocol and its timing model. The whole job is
// validated before the first bus write, so a rejected job leaves the
// card and the clocks untouched. Callers hold cp.mu.
func (cp *CoProcessor) run(job Job, res *Result) error {
	k, n := len(job.Stages), len(job.Items)
	res.reset(n)
	if k < 1 || k > mcu.MaxChainStages {
		return fmt.Errorf("core: job must name 1..%d stages, got %d", mcu.MaxChainStages, k)
	}
	if n == 0 {
		return errors.New("core: empty batch")
	}
	for i, input := range job.Items {
		if err := cp.CheckInput(job.Stages, input); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}

	// A chain latches its stage list once — the latch persists across
	// mailbox commands — and the first item's input phase pays for it.
	cmd, arg0 := uint32(mcu.CmdExec), uint32(job.Stages[0])
	var latch uint64
	if k > 1 {
		cmd, arg0 = mcu.CmdExecChain, uint32(k)
		for i, fn := range job.Stages {
			cyc, err := cp.bus.WriteWord(cp.slot, 0, mcu.RegCHAIN, uint32(i)<<16|uint32(fn))
			latch += cyc
			if err != nil {
				return err
			}
		}
	}

	var attribution []StageResult // every item's CallResult.Stages, k apiece
	if k > 1 {
		if cap(res.stages) < n*k {
			res.stages = make([]StageResult, n*k)
		}
		attribution = res.stages[:n*k]
	}
	// Card-side pipeline, one slot per physically distinct resource an
	// item occupies in sequence: the data-input module (with the
	// configuration path in front of it), each stage's fabric region —
	// chain stages are simultaneously resident, so stage s of item N and
	// stage s+1 of item N-1 genuinely run in parallel — and the
	// output-collection module. One item has nothing to overlap with.
	var cardPipe sim.Pipeline
	var costs []sim.Time
	pipelined := n > 1
	if pipelined {
		var phases [sim.MaxPipelineStages]sim.Phase
		phases[0], phases[k+1] = sim.PhaseDataIn, sim.PhaseDataOut
		for s := 1; s <= k; s++ {
			phases[s] = sim.PhaseExec
		}
		cardPipe = sim.NewPipeline(phases[:k+2]...)
		costs = make([]sim.Time, 0, mcu.MaxChainStages+2)
	}
	var label string // the job's metric label, built once
	if cp.metrics != nil {
		label = cp.stagesLabel(job.Stages)
	}
	var busTotal, cardTotal, firstIn, lastOut sim.Time
	for i, input := range job.Items {
		var dst []byte
		if i < len(job.Dsts) {
			dst = job.Dsts[i]
		}
		out, inCycles, outCycles, err := cp.exchange(cmd, arg0, input, dst)
		inT := cp.pciDom.Span(latch + inCycles)
		outT := cp.pciDom.Span(outCycles)
		latch = 0
		if err != nil {
			return fmt.Errorf("item %d of %s: %w", i, cp.stagesLabel(job.Stages), err)
		}
		br := cp.ctrl.LastBreakdown()
		stages := cp.ctrl.LastChainStages()
		cardT := br.Total()
		busTotal += inT + outT
		cardTotal += cardT
		if i == 0 {
			firstIn = inT
		}
		lastOut = outT
		if pipelined {
			// Slot costs, summing exactly to cardT. The entry slot carries
			// stage 0's lookup/config/data-in; each stage slot carries its
			// exec plus — for later stages — the RAM hand-off that precedes
			// it (previous stage's data-out and its own lookup/config/
			// data-in); the exit slot carries the final stage's data-out.
			costs = costs[:0]
			for s := range stages {
				c := stages[s].Cost
				front := c.Total() - c.Get(sim.PhaseExec) - c.Get(sim.PhaseDataOut)
				if s == 0 {
					costs = append(costs, front, c.Get(sim.PhaseExec))
				} else {
					costs = append(costs, stages[s-1].Cost.Get(sim.PhaseDataOut)+front+c.Get(sim.PhaseExec))
				}
			}
			costs = append(costs, stages[k-1].Cost.Get(sim.PhaseDataOut))
			cardPipe.Feed(costs...)
		}

		br.Add(sim.PhasePCI, inT+outT)
		item := CallResult{Output: out, Breakdown: br, Latency: br.Total(), Hit: true}
		if k > 1 {
			item.Stages = attribution[i*k : (i+1)*k : (i+1)*k]
		}
		for s, st := range stages {
			item.Hit = item.Hit && st.Hit
			if k > 1 {
				item.Stages[s] = StageResult{Fn: st.Fn, Hit: st.Hit, Breakdown: st.Cost}
			}
		}
		if item.Hit {
			res.Hits++
		}
		cp.observeRoundTrip(label, k > 1, br)
		res.Outputs = append(res.Outputs, out)
		res.Results = append(res.Results, item)
	}
	res.SequentialLatency = busTotal + cardTotal
	cardPath := cardTotal
	if pipelined {
		cardPath = cardPipe.Latency()
		res.OverlapSaved = cardTotal - cardPath
	}
	res.Latency = busTotal
	if edge := firstIn + cardPath + lastOut; edge > res.Latency {
		res.Latency = edge
	}
	if cp.metrics != nil && res.OverlapSaved != 0 {
		name := "agile_batch_overlap_saved_ps_total"
		if k > 1 {
			name = "agile_chain_overlap_saved_ps_total"
		}
		cp.metrics.Counter(name).Add(uint64(res.OverlapSaved))
	}
	return nil
}

// exchange is one mailbox round trip: the input bursts into BAR1, the
// arguments and the command go into BAR0 — the command runs
// synchronously on the card — status and result length come back, and
// the output bursts out of BAR1 into dst's storage (fresh storage when
// dst's capacity is short). It reports the bus cycles spent toward the
// card and back from it, on error paths too, so the caller charges the
// PCI domain for exactly what crossed the bus.
func (cp *CoProcessor) exchange(cmd, arg0 uint32, input, dst []byte) (out []byte, inCycles, outCycles uint64, err error) {
	if inCycles, err = cp.bus.Write(cp.slot, 1, 0, input); err != nil {
		return nil, inCycles, 0, err
	}
	for _, rw := range [...]struct{ off, val uint32 }{
		{mcu.RegARG0, arg0},
		{mcu.RegARG1, uint32(len(input))},
		{mcu.RegCMD, cmd},
	} {
		cyc, err := cp.bus.WriteWord(cp.slot, 0, rw.off, rw.val)
		inCycles += cyc
		if err != nil {
			return nil, inCycles, 0, err
		}
	}
	status, outCycles, err := cp.bus.ReadWord(cp.slot, 0, mcu.RegSTATUS)
	if err != nil {
		return nil, inCycles, outCycles, err
	}
	reg := uint32(mcu.RegRESULTLEN)
	if status != mcu.StatusOK {
		reg = mcu.RegERRCODE
	}
	val, cyc, err := cp.bus.ReadWord(cp.slot, 0, reg)
	outCycles += cyc
	if err != nil {
		return nil, inCycles, outCycles, err
	}
	if status != mcu.StatusOK {
		return nil, inCycles, outCycles, fmt.Errorf("core: card reported error code %d", val)
	}
	if out = dst[:0]; cap(out) < int(val) {
		out = make([]byte, val)
	}
	out = out[:val]
	cyc, err = cp.bus.Read(cp.slot, 1, cp.ctrl.OutWindowOff(), out)
	return out, inCycles, outCycles + cyc, err
}

// observeRoundTrip records the host-side view of one finished item: the
// PCI phase (charged here, not on the card) and the whole-round-trip
// latency histogram. A chain records under a chain-shaped label
// ("sha256->aes128") and its own histogram, keeping the per-function
// request histograms uncontaminated; card-side phases are observed in
// mcu against each stage's own function.
func (cp *CoProcessor) observeRoundTrip(label string, chained bool, br sim.Breakdown) {
	if cp.metrics == nil {
		return
	}
	if t := br.Get(sim.PhasePCI); t != 0 {
		cp.metrics.Histogram("agile_phase_seconds",
			metrics.L("phase", sim.PhasePCI.String()), metrics.L("fn", label)).Observe(t)
	}
	if chained {
		cp.metrics.Histogram("agile_chain_seconds", metrics.L("chain", label)).Observe(br.Total())
	} else {
		cp.metrics.Histogram("agile_request_seconds", metrics.L("fn", label)).Observe(br.Total())
	}
}

// stagesLabel renders a stage list as one metric label: the function's
// bank name, or the chain's names joined by "->".
func (cp *CoProcessor) stagesLabel(stages []uint16) string {
	if f, ok := cp.installed[stages[0]]; len(stages) == 1 && ok {
		return f.Name()
	}
	parts := make([]string, len(stages))
	for i, fn := range stages {
		if f, ok := cp.installed[fn]; ok {
			parts[i] = f.Name()
		} else {
			parts[i] = fmt.Sprintf("fn%d", fn)
		}
	}
	return strings.Join(parts, "->")
}

// first unwraps a one-item job's result.
func first(res *Result, err error) (*CallResult, error) {
	if err != nil {
		return nil, err
	}
	return &res.Results[0], nil
}

// errNotChain rejects a stage list the chain entry points do not take:
// a one-stage chain is a plain call and must be asked for as one.
func errNotChain(k int) error {
	if k < 2 {
		return fmt.Errorf("core: chain must name 2..%d stages, got %d", mcu.MaxChainStages, k)
	}
	return nil
}

// Call executes the named function on the card, following the full host
// protocol: burst input into BAR1, fire the mailbox, read the result.
func (cp *CoProcessor) Call(name string, input []byte) (*CallResult, error) {
	return first(cp.runNamed([]string{name}, [][]byte{input}))
}

// CallID is Call by function id.
func (cp *CoProcessor) CallID(fnID uint16, input []byte) (*CallResult, error) {
	return first(cp.runJob(Job{Stages: []uint16{fnID}, Items: [][]byte{input}}))
}

// CallBatch executes the named function over every input, modelling a
// double-buffered DMA pipeline. Outputs and card state are identical to
// issuing the calls one by one; only the latency model differs.
func (cp *CoProcessor) CallBatch(name string, inputs [][]byte) (*Result, error) {
	return cp.runNamed([]string{name}, inputs)
}

// CallBatchID is CallBatch by function id.
func (cp *CoProcessor) CallBatchID(fnID uint16, inputs [][]byte) (*Result, error) {
	return cp.runJob(Job{Stages: []uint16{fnID}, Items: inputs})
}

// CallChain executes the named functions as one on-card dataflow chain
// over input, stage k's output feeding stage k+1 through the card's
// local RAM.
func (cp *CoProcessor) CallChain(names []string, input []byte) (*CallResult, error) {
	if err := errNotChain(len(names)); err != nil {
		return nil, err
	}
	return first(cp.runNamed(names, [][]byte{input}))
}

// CallChainID is CallChain by function ids.
func (cp *CoProcessor) CallChainID(fns []uint16, input []byte) (*CallResult, error) {
	if err := errNotChain(len(fns)); err != nil {
		return nil, err
	}
	return first(cp.runJob(Job{Stages: fns, Items: [][]byte{input}}))
}

// CallChainBatch executes the named chain over every input, modelling
// the per-stage pipeline across items. Outputs and card state are
// identical to issuing the chained calls one by one.
func (cp *CoProcessor) CallChainBatch(names []string, inputs [][]byte) (*Result, error) {
	if err := errNotChain(len(names)); err != nil {
		return nil, err
	}
	return cp.runNamed(names, inputs)
}

// CallChainBatchID is CallChainBatch by function ids.
func (cp *CoProcessor) CallChainBatchID(fns []uint16, inputs [][]byte) (*Result, error) {
	if err := errNotChain(len(fns)); err != nil {
		return nil, err
	}
	return cp.runJob(Job{Stages: fns, Items: inputs})
}
