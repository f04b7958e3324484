package router

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"agilefpga/internal/client"
	"agilefpga/internal/metrics"
	"agilefpga/internal/server"
	"agilefpga/internal/sim"
	"agilefpga/internal/trace"
	"agilefpga/internal/wire"
)

// Defaults for Options.
const (
	DefaultReplication    = 2
	DefaultSpillThreshold = 8
	DefaultMaxInflight    = 1024
	DefaultEjectAfter     = 1
	DefaultProbeBase      = 50 * time.Millisecond
	DefaultProbeMax       = 2 * time.Second
)

// The router's fixed bounds: full passes over the candidate list, which
// the shared jittered backoff schedule separates, and the round trip of
// one probe of an ejected backend.
const (
	maxRounds    = 4
	probeTimeout = time.Second
)

// ErrNoBackends is returned when every candidate backend refused the
// request across every retry round.
var ErrNoBackends = errors.New("router: no backends available")

// Options tunes the router. The zero value of every field selects a
// default.
type Options struct {
	// Replication is how many ring-consecutive nodes may serve one
	// function (default 2): the primary takes all traffic until its
	// in-flight count reaches SpillThreshold, then calls spill to the
	// least-loaded replica — which warms its caches, replicating the
	// hot function across the fleet exactly as load demands.
	Replication int
	// SpillThreshold is the primary in-flight count at which calls
	// spill to a replica (default 8 ≈ 2× a node's card parallelism).
	SpillThreshold int
	// VNodes and Seed parameterise the consistent-hash ring; equal
	// values on every router instance give identical routing.
	VNodes int
	Seed   uint64
	// MaxInflight bounds requests admitted by the wire front end
	// (default 1024); excess is refused with RESOURCE_EXHAUSTED.
	MaxInflight int
	// EjectAfter is the consecutive infrastructure-failure count that
	// ejects a backend (default 1). A drain answer ejects immediately
	// regardless.
	EjectAfter int
	// ProbeBase/ProbeMax shape the ejected-backend probe schedule
	// (jittered exponential, shared Backoff implementation); a probe
	// round trip is bounded by probeTimeout.
	ProbeBase time.Duration
	ProbeMax  time.Duration
	// Backend is the template for per-backend mux clients. MaxRetries
	// is forced off: the router retries across backends, not within
	// one.
	Backend client.Options
	// Metrics, if set, receives the router series (per-backend
	// in-flight/ejections/reinstatements/spills/forwards, request
	// latency, hop overhead with exemplars).
	Metrics *metrics.Registry
	// Tracer, if set, records a route span per request between the
	// client's call span and the backend server's rpc span. A traced
	// frame arriving at the front end joins the client's trace; the
	// forward ships the router's attempt span onward.
	Tracer *trace.Tracer
}

// Router fans calls out over a fleet of agilenetd backends by
// consistent-hash function affinity. Use it directly as a library
// (Call) or put it on the wire with Serve. Safe for concurrent use.
type Router struct {
	opts        Options
	backendOpts client.Options
	ring        *Ring
	backends    map[string]*backend
	order       []string // sorted backend addrs: deterministic fallback order
	bo          *client.Backoff
	probeBo     *client.Backoff
	front       *server.FrontEnd // the wire front end: the server's loop, routing as its handler

	pctx    context.Context // cancelled on Close/Shutdown: stops probes
	pcancel context.CancelFunc
	probes  sync.WaitGroup
	stop    sync.Once
}

// New builds a router over the given backend addresses (fixed for the
// router's lifetime). Backends are dialled eagerly; one that is down
// at start is not an error — it begins ejected and the probe loop
// reinstates it when it appears.
func New(backends []string, opts Options) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("router: no backends configured")
	}
	if opts.Replication <= 0 {
		opts.Replication = DefaultReplication
	}
	if opts.SpillThreshold <= 0 {
		opts.SpillThreshold = DefaultSpillThreshold
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.EjectAfter <= 0 {
		opts.EjectAfter = DefaultEjectAfter
	}
	if opts.ProbeBase <= 0 {
		opts.ProbeBase = DefaultProbeBase
	}
	if opts.ProbeMax <= 0 {
		opts.ProbeMax = DefaultProbeMax
	}
	bopts := opts.Backend
	bopts.MaxRetries = -1
	bopts.Tracer = opts.Tracer
	pctx, pcancel := context.WithCancel(context.Background())
	r := &Router{
		opts:        opts,
		backendOpts: bopts,
		ring:        NewRing(opts.VNodes, opts.Seed),
		backends:    make(map[string]*backend, len(backends)),
		bo:          client.NewBackoff(bopts.BaseBackoff, bopts.MaxBackoff, opts.Seed),
		probeBo:     client.NewBackoff(opts.ProbeBase, opts.ProbeMax, opts.Seed),
		pctx:        pctx,
		pcancel:     pcancel,
	}
	// The router exports no front-end series of its own: its request
	// metrics are the route series.
	r.front = server.NewFrontEnd("router", opts.MaxInflight, nil, server.Handler{Serve: r.serve})
	for _, addr := range backends {
		if _, dup := r.backends[addr]; dup {
			continue
		}
		r.ring.Add(addr)
		r.backends[addr] = newBackend(addr, opts.Metrics)
	}
	r.order = r.ring.Nodes()
	for _, addr := range r.order {
		b := r.backends[addr]
		if _, err := b.getClient(r.backendOpts); err != nil {
			if b.eject() {
				r.startProbe(b)
			}
		}
	}
	return r, nil
}

// stackCands is the fleet size (and replication) whose candidate list
// route builds without touching the heap; a larger fleet grows the
// list onto it, in the same order.
const stackCands = 8

// candidates lists in dst's array, from dst[:0], the backends to try
// for a ring key: healthy ring replicas first (primary, then
// clockwise), with the least-loaded replica promoted over an overloaded
// primary (load-aware spill); then the remaining healthy nodes; then
// ejected ones as a last resort (a probe may lag a node's recovery).
// The bool reports whether a spill promotion happened.
func (r *Router) candidates(dst []*backend, key uint16) ([]*backend, bool) {
	var repBuf [stackCands]string
	reps := r.ring.LookupN(repBuf[:0], key, r.opts.Replication)
	cands := dst[:0]
	for _, name := range reps {
		if b := r.backends[name]; b.healthy() {
			cands = append(cands, b)
		}
	}
	spilled := false
	if len(cands) >= 2 {
		primary := cands[0]
		if int(primary.inflight.Load()) >= r.opts.SpillThreshold {
			best, bi := primary, 0
			for i, b := range cands[1:] {
				if b.inflight.Load() < best.inflight.Load() {
					best, bi = b, i+1
				}
			}
			if bi != 0 {
				cands[0], cands[bi] = cands[bi], cands[0]
				spilled = true
			}
		}
	}
	for _, name := range r.order {
		if b := r.backends[name]; !slices.Contains(reps, name) && b.healthy() {
			cands = append(cands, b)
		}
	}
	for _, name := range reps {
		if b := r.backends[name]; !b.healthy() {
			cands = append(cands, b)
		}
	}
	for _, name := range r.order {
		if b := r.backends[name]; !slices.Contains(reps, name) && !b.healthy() {
			cands = append(cands, b)
		}
	}
	return cands, spilled
}

// disposition classifies a forward failure for the routing loop.
type disposition int

const (
	dispTerminal disposition = iota // the caller's problem — return it
	dispOverload                    // backend alive but shedding — try a replica
	dispDrain                       // graceful drain — eject immediately
	dispInfra                       // transport/unavailable — count toward ejection
)

func classify(err error) disposition {
	var se *client.StatusError
	if errors.As(err, &se) {
		switch se.Status {
		case wire.StatusResourceExhausted:
			return dispOverload
		case wire.StatusUnavailable:
			if se.Msg == server.DrainMessage {
				return dispDrain
			}
			return dispInfra
		default:
			return dispTerminal
		}
	}
	var te *client.TransportError
	if errors.As(err, &te) {
		return dispInfra
	}
	return dispTerminal // context errors and the like are not the backend's fault
}

// ringKey places a stage list on the ring. A plain call keys on its
// function id. A chain folds its whole ordered stage list into one
// synthetic key (FNV-1a over the big-endian stage bytes, upper half
// folded in), so a chain's affinity is keyed on the chain, not on any
// single stage: two chains sharing a stage still route independently,
// and the same chain always lands on the same replica set, keeping all
// of its stages warm together on one backend.
func ringKey(stages []uint16) uint16 {
	if len(stages) == 1 {
		return stages[0]
	}
	h := uint32(2166136261)
	for _, fn := range stages {
		h = (h ^ uint32(fn>>8)) * 16777619
		h = (h ^ uint32(fn&0xFF)) * 16777619
	}
	return uint16(h ^ h>>16)
}

// route is the candidate/retry loop behind the wire front end: it
// forwards the stage list (one function for a plain call) to
// the backends ringKey's affinity selects. A successful answer is
// copied into dst's array when it fits (client.CallRef's contract).
// backendNS accumulates wall time spent inside backend forwards, so
// callers can separate hop overhead from backend service time.
func (r *Router) route(ctx context.Context, stages []uint16, payload, dst []byte, ref trace.SpanRef) (out []byte, card int, backendNS int64, err error) {
	key := ringKey(stages)
	var lastErr error
	var candBuf [stackCands]*backend
	for round := 0; ; round++ {
		cands, spilled := r.candidates(candBuf[:0], key)
		if spilled {
			cands[0].spills.Add(1)
			cands[0].cSpill.Inc()
		}
		for _, b := range cands {
			if cerr := ctx.Err(); cerr != nil {
				if lastErr == nil {
					lastErr = cerr
				}
				return nil, -1, backendNS, lastErr
			}
			out, card, dns, ferr := r.forward(ctx, b, stages, payload, dst, ref)
			backendNS += dns
			if ferr == nil {
				return out, card, backendNS, nil
			}
			lastErr = ferr
			switch classify(ferr) {
			case dispTerminal:
				return nil, card, backendNS, ferr
			case dispOverload:
				// Alive but shedding: no ejection, next candidate absorbs.
			case dispDrain:
				if b.eject() {
					r.startProbe(b)
				}
			case dispInfra:
				if int(b.fails.Add(1)) >= r.opts.EjectAfter {
					if b.eject() {
						r.startProbe(b)
					}
				}
			}
		}
		if round+1 >= maxRounds {
			if lastErr == nil {
				lastErr = ErrNoBackends
			}
			return nil, -1, backendNS, lastErr
		}
		if serr := r.bo.Sleep(ctx, round); serr != nil {
			if lastErr == nil {
				lastErr = serr
			}
			return nil, -1, backendNS, lastErr
		}
	}
}

// forward sends one attempt to one backend through its mux client,
// tracking per-backend in-flight (the spill signal) and the forward
// outcome series.
func (r *Router) forward(ctx context.Context, b *backend, stages []uint16, payload, dst []byte, ref trace.SpanRef) ([]byte, int, int64, error) {
	c, err := b.getClient(r.backendOpts)
	if err != nil {
		r.countForward(b, err)
		return nil, -1, 0, err
	}
	b.inflight.Add(1)
	b.gInflight.Inc()
	start := time.Now() //lint:wallclock hop accounting is wall time; the router is outside the simulation
	out, card, cerr := c.CallRef(ctx, stages, payload, dst, ref)
	elapsed := time.Since(start) //lint:wallclock hop accounting is wall time; the router is outside the simulation
	b.inflight.Add(-1)
	b.gInflight.Dec()
	if cerr == nil {
		b.fails.Store(0)
	}
	r.countForward(b, cerr)
	return out, card, elapsed.Nanoseconds(), cerr
}

func (r *Router) countForward(b *backend, err error) {
	if r.opts.Metrics == nil {
		return
	}
	r.opts.Metrics.Counter("agile_router_forwards_total",
		metrics.L("backend", b.addr), metrics.L("status", routeStatus(err))).Inc()
}

// observeRoute records one routed request: total latency and the hop
// overhead (total minus time inside backend calls), both with the
// request's trace id as exemplar so the histogram links back to
// /debug/traces.
func (r *Router) observeRoute(start time.Time, backendNS int64, err error, traceID uint64) {
	if r.opts.Metrics == nil {
		return
	}
	elapsed := time.Since(start) //lint:wallclock hop accounting is wall time; the router is outside the simulation
	lbl := metrics.L("status", routeStatus(err))
	r.opts.Metrics.Counter("agile_router_requests_total", lbl).Inc()
	r.opts.Metrics.Histogram("agile_router_request_seconds", lbl).
		ObserveExemplar(sim.Time(elapsed.Nanoseconds())*sim.Nanosecond, traceID)
	overhead := elapsed.Nanoseconds() - backendNS
	if overhead < 0 {
		overhead = 0
	}
	r.opts.Metrics.Histogram("agile_router_hop_overhead_seconds").
		ObserveExemplar(sim.Time(overhead)*sim.Nanosecond, traceID)
}

// routeStatus renders a route outcome as a span/label status string.
func routeStatus(err error) string {
	if err == nil {
		return "ok" // before se: errors.As makes it escape, nil or not
	}
	var se *client.StatusError
	switch {
	case errors.As(err, &se):
		return se.Status.String()
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	var te *client.TransportError
	if errors.As(err, &te) {
		return "transport"
	}
	return "error"
}

// startProbe launches the single probe goroutine owning b's path back
// to healthy. It re-checks the node on the jittered probe schedule
// until it answers, then drops the stale client (the next forward
// re-dials fresh) and reinstates.
func (r *Router) startProbe(b *backend) {
	r.probes.Add(1)
	go func() {
		defer r.probes.Done()
		b.state.Store(int32(stateProbing))
		for attempt := 0; ; attempt++ {
			if err := r.probeBo.Sleep(r.pctx, attempt); err != nil {
				return // router closing
			}
			if probeOnce(b.addr, probeTimeout) {
				b.closeClient()
				b.reinstate()
				return
			}
		}
	}()
}

// BackendInfo is one backend's health snapshot.
type BackendInfo struct {
	Addr           string `json:"addr"`
	State          string `json:"state"`
	Inflight       int64  `json:"inflight"`
	Ejections      uint64 `json:"ejections"`
	Reinstatements uint64 `json:"reinstatements"`
	Spills         uint64 `json:"spills"`
}

// Backends snapshots every backend in address order.
func (r *Router) Backends() []BackendInfo {
	out := make([]BackendInfo, 0, len(r.order))
	for _, name := range r.order {
		b := r.backends[name]
		out = append(out, BackendInfo{
			Addr:           b.addr,
			State:          backendState(b.state.Load()).String(),
			Inflight:       b.inflight.Load(),
			Ejections:      b.ejections.Load(),
			Reinstatements: b.reinstatements.Load(),
			Spills:         b.spills.Load(),
		})
	}
	return out
}

// DebugHandler serves the backend table as JSON — mounted at
// /debug/backends by cmd/agilerouter.
func (r *Router) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Backends())
	})
}

// Serve accepts wire-protocol connections on ln, routing every
// request through the fleet, until Shutdown or Close; then it returns
// server.ErrServerClosed. The front end is internal/server's
// connection loop: pipelined requests are handled concurrently,
// responses may interleave, and a duplicate in-flight request id is a
// fatal protocol error.
func (r *Router) Serve(ln net.Listener) error { return r.front.Serve(ln) }

// respBufs holds the buffers serve has the backend answers copied into.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// serve is the router's request handler: a route span and one trip
// through the candidate/retry loop.
func (r *Router) serve(ctx context.Context, rq *server.Call) {
	// The route span sits between the client's call span and the
	// backend server's rpc span. A tracer-less router still forwards an
	// incoming context verbatim (passthrough ref), so the trace survives
	// the hop even when this process records nothing.
	var ref trace.SpanRef
	if tc := rq.Trace; tc.Valid() {
		ref = r.opts.Tracer.StartRemote(tc.TraceID, tc.SpanID,
			tc.Sampled(), "route", "router", rq.Fn)
		if !ref.Valid() && tc.Sampled() {
			ref = trace.SpanRef{TraceID: tc.TraceID, SpanID: tc.SpanID}
		}
	} else {
		ref = r.opts.Tracer.StartRoot("route", "router", rq.Fn)
	}
	start := time.Now() //lint:wallclock hop accounting is wall time; the router is outside the simulation
	buf := respBufs.Get().(*[]byte)
	out, card, backendNS, err := r.route(ctx, rq.Stages(), rq.Payload, (*buf)[:0], ref)
	st, payload := responseFor(out, err)
	rq.Reply(st, int16(card), payload)
	if err == nil {
		// Reply has written out. After a failed forward a late answer
		// may still land in the buffer, so only a settled one is reused.
		*buf = out[:0]
		respBufs.Put(buf)
	}
	r.observeRoute(start, backendNS, err, ref.TraceID)
	r.opts.Tracer.End(ref, routeStatus(err))
}

// responseFor maps a route outcome onto the wire response the router
// answers downstream.
func responseFor(out []byte, err error) (wire.Status, []byte) {
	if err == nil {
		return wire.StatusOK, out
	}
	var se *client.StatusError
	if errors.As(err, &se) {
		return se.Status, []byte(se.Msg)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return wire.StatusDeadlineExceeded, []byte("deadline exceeded in router")
	}
	return wire.StatusUnavailable, []byte(err.Error())
}

// stopBackends cancels probes, waits them out, and closes every
// backend client. Idempotent.
func (r *Router) stopBackends() {
	r.stop.Do(func() {
		r.pcancel()
		r.probes.Wait()
		for _, name := range r.order {
			r.backends[name].closeClient()
		}
	})
}

// Shutdown gracefully drains the router: the listener closes, new
// requests are refused with UNAVAILABLE + DrainMessage (so an upstream
// router ejects this one cleanly), admitted requests finish, then
// connections, probes, and backend clients close. Returns ctx.Err()
// if the drain outlives ctx.
func (r *Router) Shutdown(ctx context.Context) error {
	err := r.front.Shutdown(ctx)
	r.stopBackends()
	return err
}

// Close shuts the router down without waiting for in-flight requests.
func (r *Router) Close() error {
	r.front.Close()
	r.stopBackends()
	return nil
}
