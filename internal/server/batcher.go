package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"agilefpga/internal/cluster"
	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
	"agilefpga/internal/trace"
	"agilefpga/internal/wire"
)

// batcher coalesces admitted same-function requests from different
// connections into one cluster submission. Each function id has at
// most one open window: the first request opens it and arms a dwell
// timer, later requests join it, and the window flushes when it
// reaches BatchWindow entries or the dwell expires — whichever comes
// first. A flushed window becomes one cluster.SubmitJob call, so the
// whole cross-client batch rides a single card-queue slot and executes
// as one coalesced run (one configuration check, one batch id).
//
// Dwell is wall-clock by design: it bounds real latency added to real
// network requests, the same domain the server's other timers live in.
// The simulation's virtual clocks are never involved.
type batcher struct {
	cl     *cluster.Cluster
	window int           // flush at this many entries
	dwell  time.Duration // flush this long after the first entry
	reg    *metrics.Registry
	tracer *trace.Tracer

	mu   sync.Mutex
	open map[uint16]*batchWin
}

// batchWin is one open window: parallel slices of the joined requests.
type batchWin struct {
	fn      uint16
	timer   *time.Timer
	started time.Time
	ctxs    []context.Context
	inputs  [][]byte
	outs    []chan *cluster.Pending
	refs    []trace.SpanRef
	flushed bool
}

func newBatcher(cl *cluster.Cluster, window int, dwell time.Duration, reg *metrics.Registry, tracer *trace.Tracer) *batcher {
	return &batcher{cl: cl, window: window, dwell: dwell, reg: reg, tracer: tracer, open: make(map[uint16]*batchWin)}
}

// submit joins (or opens) the window for req's function and blocks
// until the window flushes — at most dwell — returning the pending
// that carries this request's slot in the group. The request's payload
// is aliased, not copied: it stays valid because the caller holds the
// frame until the pending settles.
func (b *batcher) submit(ctx context.Context, req *wire.Request, ref trace.SpanRef) *cluster.Pending {
	ch := make(chan *cluster.Pending, 1)
	b.mu.Lock()
	w := b.open[req.Fn]
	if w == nil {
		w = &batchWin{fn: req.Fn, started: time.Now()} //lint:wallclock dwell bounds real client-visible latency at the network edge
		b.open[req.Fn] = w
		w.timer = time.AfterFunc(b.dwell, func() { b.flush(w) }) //lint:wallclock see above
	}
	w.ctxs = append(w.ctxs, ctx)
	w.inputs = append(w.inputs, req.Payload)
	w.outs = append(w.outs, ch)
	w.refs = append(w.refs, ref)
	full := len(w.outs) >= b.window
	b.mu.Unlock()
	if full {
		b.flush(w)
	}
	return <-ch
}

// flush closes the window and submits it as one group. Idempotent: the
// size trigger and the dwell timer may race, and exactly one wins.
func (b *batcher) flush(w *batchWin) {
	b.mu.Lock()
	if w.flushed {
		b.mu.Unlock()
		return
	}
	w.flushed = true
	if b.open[w.fn] == w {
		delete(b.open, w.fn)
	}
	w.timer.Stop()
	ctxs, inputs, outs, refs := w.ctxs, w.inputs, w.outs, w.refs
	dwell := time.Since(w.started) //lint:wallclock dwell bounds real client-visible latency at the network edge
	b.mu.Unlock()
	if b.reg != nil {
		b.reg.HistogramWith("agile_net_batch_window_size", metrics.SizeBuckets()).
			Observe(sim.Time(len(outs)))
		b.reg.Counter("agile_net_batch_dwell_ps_total").Add(uint64(dwell.Nanoseconds()) * 1000)
	}
	// Link the window to every sampled member's trace: each gets a
	// batch-window span covering the dwell, noting the window size, so
	// cross-client coalescing is visible in each request's own tree.
	note := fmt.Sprintf("size=%d fn=%d", len(outs), w.fn)
	for _, ref := range refs {
		b.tracer.Add(ref, trace.Span{
			Name: "batch-window", Layer: "server", Fn: w.fn, Note: note,
			StartNS: w.started.UnixNano(), DurNS: dwell.Nanoseconds(),
		})
	}
	pendings := b.cl.SubmitJob(cluster.Job{Stages: []uint16{w.fn}, Inputs: inputs, Ctxs: ctxs, Refs: refs})
	for i, ch := range outs {
		ch <- pendings[i]
	}
}
