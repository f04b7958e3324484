package main

import (
	"context"
	"fmt"
	"time"

	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
)

// A run builds and warms the stack at least setupReps times, and goes
// on, up to setupMost times, until setupSpend has been spent on it: a
// 90 ms set-up is jittery enough to need the extra repetitions, a 700 ms
// one is not. Set-up time is reported as the median of the repetitions;
// the last stack is the one measured.
const (
	setupReps  = 5
	setupMost  = 15
	setupSpend = 1500 * time.Millisecond
)

// config is one invocation's protocol: the contract values unless a
// flag says otherwise; -smoke shrinks them so a test covers every path.
type config struct {
	seed      uint64
	seconds   float64 // timed seconds per workload, split evenly over rounds
	rounds    int
	setupReps int
	setupMost int
	traceOps  int // 0 = each workload's own
	ladderOps int // 0 = each workload's own
}

func (c config) traceLen(w *workload) int {
	if c.traceOps > 0 {
		return c.traceOps
	}
	return w.traceOps
}

func (c config) roundDur() time.Duration {
	return time.Duration(c.seconds / float64(c.rounds) * float64(time.Second))
}

// bench is one workload under measurement.
type bench struct {
	w     *workload
	trace []op
	stack *stack
	tally

	setups []setup      // one per set-up repetition
	rounds []loadResult // one per timed round, tracing and registries off
}

// setup is what one set-up repetition measured.
type setup struct {
	tally
	secs float64 // host seconds: stack construction + warm-up
	// virtPerReq is the modelled card time per card request of the
	// warm-up, in µs. The warm-up starts from cold fabrics and has one
	// submitter, so this must repeat exactly.
	virtPerReq float64
}

// setUp builds w's stack and runs the fixed warm-up: one call per
// catalogue function in catalogue order (pins affinity the same way
// whatever the trace), then one closed-loop pass over the whole trace.
func setUp(ctx context.Context, w *workload, trace []op, reg *metrics.Registry) (*stack, setup, error) {
	t0 := now()
	s, err := newStack(w, w.top(), reg)
	if err != nil {
		return nil, setup{}, fmt.Errorf("%s: building the stack: %w", w.name, err)
	}
	var su setup
	for _, o := range primeOps(w, trace) {
		su.record(&o, s.do(ctx, &o))
	}
	warm := runLoad(ctx, s, trace, 0)
	su.add(warm.tally)
	su.secs = now().Sub(t0).Seconds()
	total, _, _ := s.cardStats()
	su.virtPerReq = virtUS(total.Phases.Total(), total.Requests)
	return s, su, nil
}

// virtUS is virtual time t spread over n card requests, in µs.
func virtUS(t sim.Time, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return t.Microseconds() / float64(n)
}

func newBench(ctx context.Context, w *workload, cfg config) (*bench, error) {
	trace, err := genTrace(w, cfg.seed, cfg.traceLen(w))
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, trace: trace}
	var spent float64
	for rep := 0; rep < cfg.setupMost && (rep < cfg.setupReps || spent < setupSpend.Seconds()); rep++ {
		if b.stack != nil {
			b.stack.close()
		}
		var su setup
		if b.stack, su, err = setUp(ctx, w, trace, nil); err != nil {
			return nil, err
		}
		b.add(su.tally)
		b.setups = append(b.setups, su)
		spent += su.secs
	}
	return b, nil
}

func (b *bench) round(ctx context.Context, dur time.Duration) {
	r := runLoad(ctx, b.stack, b.trace, dur)
	b.add(r.tally)
	b.rounds = append(b.rounds, r)
}

// endToEnd reduces the rounds and set-ups to quartiles per end-to-end
// metric; metricDef.figure picks the one reported.
func (b *bench) endToEnd() map[string]summary {
	return map[string]summary{
		"ops_per_s":      over(b.rounds, func(r loadResult) float64 { return r.opsPerSec() }),
		"p50_us":         over(b.rounds, func(r loadResult) float64 { return r.p50 }),
		"p90_us":         over(b.rounds, func(r loadResult) float64 { return r.p90 }),
		"allocs_per_op":  over(b.rounds, func(r loadResult) float64 { return r.perOp(float64(r.mallocs)) }),
		"virt_us_per_op": over(b.setups, func(s setup) float64 { return s.virtPerReq }),
		"setup_s":        over(b.setups, func(s setup) float64 { return s.secs }),
	}
}

// over summarizes one figure of every sample.
func over[T any](samples []T, f func(T) float64) summary {
	vals := make([]float64, len(samples))
	for i, s := range samples {
		vals[i] = f(s)
	}
	return summarize(vals)
}

// virtualTimeRepeats reports whether every set-up repetition modelled
// exactly the same card time: identical cold stacks, identical trace,
// one submitter — the cycle model has no other input.
func (b *bench) virtualTimeRepeats() bool {
	for _, s := range b.setups {
		if s.virtPerReq != b.setups[0].virtPerReq {
			return false
		}
	}
	return true
}
