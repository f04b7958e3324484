package main

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// now is the benchmark's only wall-clock read. Every host-clock figure
// (ops/s, latencies, spans, set-up time) is a difference of two of
// these; every virtual-clock figure comes from the cards' own counters.
//
//lint:wallclock the benchmark measures host time by design; it lives outside the simulation
func now() time.Time { return time.Now() }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // a diagnostic only; the run does not depend on it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tally counts operations attempted and failed (errors plus wrong
// outputs) across everything a run did, set-up passes included.
type tally struct {
	attempted, failed, wrong int
	firstErr                 error
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) record(o *op, err error) {
	t.attempted += o.ops()
	if err == nil {
		return
	}
	t.failed += o.ops()
	if errors.Is(err, errWrongOutput) {
		t.wrong += o.ops()
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// loadResult is one closed-loop pass or round. Latencies are
// caller-observed, per item for batch ops; the samples themselves are
// dropped so that no round changes the heap the next one runs in.
type loadResult struct {
	tally
	ops        int           // verified operations completed
	elapsed    time.Duration // first send to last reply
	p50, p90   float64       // µs
	p99, p999  float64       // µs
	beyond99   int           // samples above p99, the support of that figure
	beyond999  int
	mallocs    uint64 // heap objects allocated, whole process
	allocBytes uint64
	gcCycles   uint32
	heapSysMB  float64
	cpu        time.Duration
}

func (r loadResult) opsPerSec() float64 { return float64(r.ops) / r.elapsed.Seconds() }

func (r loadResult) perOp(v float64) float64 { return v / float64(max(r.ops, 1)) }

// The benchmark drives every workload from one closed-loop caller, on
// one P, with the whole process pinned to one CPU (pinProcess).
// Measured on the 2-vCPU sandbox this was written in: the two vCPUs
// share one host CPU (two busy threads each run at half the speed of
// one), so a goroutine hand-off that crosses vCPUs can wait a host time
// slice — p99.9 sat at 4.1 ms on every workload — and the same code
// settled, run by run and sometimes mid-run, into modes whose p50
// differed by 1.7x (19 vs 33 us on net-hot-small). Spread of ops/s on
// net-hot-small over runs with different seeds: 2 callers on 2 Ps 9-28%
// (net-cold-zipf 46%), 1 caller on 1 P unpinned 10-38%, pinned under
// 10%. What this gives up — contention between callers — needs spans
// inside the program (ROADMAP E21), not more callers here.
const (
	callers = 1
	procs   = 1
)

// runLoad drives the stack closed-loop from one caller: take the next
// trace op, send it, wait for the reply, verify it. dur > 0 cycles the
// trace for that long (a timed round); dur == 0 plays the trace exactly
// once (the warm-up pass).
func runLoad(ctx context.Context, s *stack, trace []op, dur time.Duration) loadResult {
	var res loadResult
	lat := make([]int64, 0, 1<<16)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := now()
	deadline := start.Add(dur)
	last := start
	for i := 0; dur > 0 || i < len(trace); i++ {
		o := &trace[i%len(trace)]
		t0 := now()
		if dur > 0 && !t0.Before(deadline) {
			break
		}
		err := s.do(ctx, o)
		last = now()
		res.record(o, err)
		if err == nil {
			res.ops += o.ops()
			lat = append(lat, last.Sub(t0).Nanoseconds()/int64(o.ops()))
		}
	}
	res.elapsed = last.Sub(start)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.gcCycles = after.NumGC - before.NumGC
	res.heapSysMB = float64(after.HeapSys) / (1 << 20)
	slices.Sort(lat)
	us := func(q float64) (float64, int) {
		v := percentile(lat, q)
		return float64(v) / 1e3, beyond(lat, v)
	}
	res.p50, _ = us(0.50)
	res.p90, _ = us(0.90)
	res.p99, res.beyond99 = us(0.99)
	res.p999, res.beyond999 = us(0.999)
	return res
}
