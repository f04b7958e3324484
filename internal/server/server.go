// Package server puts the cluster dispatcher behind a network edge: a
// TCP server speaking the internal/wire protocol, with admission
// control in front of the cards so overload turns into an explicit
// RESOURCE_EXHAUSTED answer instead of unbounded queueing.
//
// Admission is two-layered. A server-wide semaphore bounds in-flight
// requests (Options.MaxInflight); a request that cannot take a slot is
// refused immediately. An admitted request is then submitted to the
// cluster without blocking — a full card queue surfaces as
// cluster.ErrQueueFull and maps to the same refusal status. Both layers
// reject rather than wait, so a saturated server keeps answering in
// microseconds and clients decide how to back off (internal/client
// retries with jittered exponential backoff).
//
// Deadlines travel end to end: the wire request carries a relative
// budget, the server turns it into a context deadline, the cluster
// worker refuses to execute a job whose context has already expired,
// and the server answers DEADLINE_EXCEEDED as soon as the budget runs
// out even if the job is still queued behind slower work.
//
// Shutdown drains: the listener closes, new requests on live
// connections get UNAVAILABLE, in-flight requests finish and flush
// their responses, then connections close.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"agilefpga/internal/cluster"
	"agilefpga/internal/core"
	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
	"agilefpga/internal/trace"
	"agilefpga/internal/wire"
)

// DefaultMaxInflight bounds concurrently admitted requests when
// Options.MaxInflight is zero.
const DefaultMaxInflight = 64

// DefaultBatchDwell is the batching window's dwell bound when
// Options.BatchWindow enables batching but BatchDwell is zero.
const DefaultBatchDwell = 200 * time.Microsecond

// ErrServerClosed is returned by Serve (a Server's or a Router's) after
// Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// DrainMessage is the diagnostic a draining server attaches to its
// UNAVAILABLE refusals. Routers match it to tell a graceful drain
// (stop sending, node is leaving deliberately) from a crashed or
// overloaded backend — the message is part of the protocol surface,
// not free-form text.
const DrainMessage = "server draining"

// Options tunes the server. The zero value of every field selects a
// default.
type Options struct {
	// MaxInflight bounds admitted requests across all connections
	// (default DefaultMaxInflight). Excess requests are refused with
	// StatusResourceExhausted.
	MaxInflight int
	// BatchWindow, when > 1, enables cross-client coalescing: up to
	// BatchWindow admitted same-function requests — from any mix of
	// connections — are collected into one window and submitted to the
	// cluster as a single batch, so the whole window shares one card
	// queue slot, one configuration check and one coalesced run.
	// 0 or 1 (the default) dispatches each request individually.
	BatchWindow int
	// BatchDwell bounds how long the first request of a window waits
	// for company before the window flushes anyway (default
	// DefaultBatchDwell). Only meaningful with BatchWindow > 1.
	BatchDwell time.Duration
	// Metrics receives the server series (nil = no recording).
	Metrics *metrics.Registry
	// Tracer receives the server's distributed-trace spans: one rpc
	// span per request (joining the client's trace when the wire frame
	// carried a context, rooting a server-side trace otherwise), with
	// queue-wait, service and per-phase card children (nil = no
	// tracing).
	Tracer *trace.Tracer
}

// Server serves wire-protocol requests by dispatching onto a cluster:
// the FrontEnd's connection loop, with the cluster as its handler.
type Server struct {
	*FrontEnd
	cl    *cluster.Cluster
	opts  Options
	batch *batcher // nil unless Options.BatchWindow > 1

	// reqMu guards reqs, the live table behind /debug/requests: every
	// admitted request registers here for its whole service time.
	reqMu sync.Mutex
	reqs  map[*Call]admitted

	// hookAdmitted, when set by tests, runs on the request's serving
	// goroutine after admission and before dispatch — the deterministic
	// way to hold the semaphore and observe saturation.
	hookAdmitted func(*wire.Request)
}

// New builds a server over cl. The cluster stays owned by the caller
// (Shutdown does not close it), so one cluster can outlive many
// listeners.
func New(cl *cluster.Cluster, opts Options) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.BatchDwell <= 0 {
		opts.BatchDwell = DefaultBatchDwell
	}
	s := &Server{
		cl:   cl,
		opts: opts,
		reqs: make(map[*Call]admitted),
	}
	s.FrontEnd = NewFrontEnd("server", opts.MaxInflight, opts.Metrics, Handler{
		Serve: s.serve,
		Refused: func(req *wire.Request, st wire.Status) {
			s.observe(st, 0, 0)
		},
	})
	if opts.BatchWindow > 1 {
		s.batch = newBatcher(cl, opts.BatchWindow, opts.BatchDwell, opts.Metrics, opts.Tracer)
	}
	return s
}

// serve is the server's request handler: an rpc span, a /debug/requests
// row, and one cluster dispatch.
func (s *Server) serve(ctx context.Context, rq *Call) {
	// The admission span: join the client's trace when the wire frame
	// carried a context, root a server-side trace otherwise. A nil
	// Tracer (or a sampled-out decision) yields a zero ref and every
	// downstream span call is a no-op.
	var ref trace.SpanRef
	if tc := rq.Trace; tc.Valid() {
		ref = s.opts.Tracer.StartRemote(tc.TraceID, tc.SpanID,
			tc.Sampled(), "rpc", "server", rq.Fn)
	} else {
		ref = s.opts.Tracer.StartRoot("rpc", "server", rq.Fn)
	}
	start := time.Now() //lint:wallclock served latency is wall time seen by network clients
	s.reqMu.Lock()
	s.reqs[rq] = admitted{start: start, traceID: ref.TraceID}
	s.reqMu.Unlock()
	if s.hookAdmitted != nil {
		s.hookAdmitted(&rq.Request)
	}
	status, card, payload, p := s.execute(ctx, rq, ref)
	// The request leaves /debug/requests before its response is written:
	// a client may look at the table the moment it reads the response.
	s.reqMu.Lock()
	delete(s.reqs, rq)
	s.reqMu.Unlock()
	rq.Reply(status, card, payload)
	if p != nil {
		p.Release() // the payload may be p's output buffer: written out now
	}
	s.opts.Tracer.End(ref, statusLabel(status))
	// The served latency costs a clock read: take it only for a registry.
	if s.opts.Metrics != nil {
		s.observe(status, time.Since(start), ref.TraceID) //lint:wallclock served latency is wall time seen by network clients
	}
}

// statusLabel renders a wire status as a span status string ("ok"
// keeps the trace out of the error ring).
func statusLabel(st wire.Status) string {
	if st == wire.StatusOK {
		return "ok"
	}
	return st.String()
}

// execute runs one admitted request on the cluster, mapping dispatcher
// errors to wire statuses. ctx carries the request's deadline; ref the
// request's server span (zero when the request is not sampled). Plain
// or chain, the request is one dispatcher job — its stage list over its
// payload, one card-queue slot — and the cluster worker coalesces
// consecutive jobs for the same stage list into one pipelined run; a
// plain request joins the batcher's window first when one is
// configured. A settled job's Pending comes back with the answer, for
// the caller to release once the reply is written: an OK payload is
// the Pending's output buffer.
func (s *Server) execute(ctx context.Context, rq *Call, ref trace.SpanRef) (wire.Status, int16, []byte, *cluster.Pending) {
	var p *cluster.Pending
	switch {
	case len(rq.Payload) == 0:
		return wire.StatusInvalidArgument, -1, []byte("empty payload"), nil
	case s.batch != nil && len(rq.Next) == 0:
		p = s.batch.submit(ctx, &rq.Request, ref)
	default:
		p = s.cl.SubmitJob(cluster.Job{
			Stages: rq.Stages(), Inputs: [][]byte{rq.Payload},
			Ctxs: []context.Context{ctx}, Refs: []trace.SpanRef{ref},
		})[0]
	}
	if !p.Await(ctx) {
		// The budget ran out while the job sat in a card queue or ran on
		// a card. Answer now; the worker will discard the expired job
		// when it reaches it. Until then it may read the payload and
		// write the Pending's output buffer, so the frame, the Call and
		// the Pending all go to the garbage collector instead of back to
		// their pools.
		rq.orphan()
		return wire.StatusDeadlineExceeded, -1, []byte(ctx.Err().Error()), nil
	}
	res, card, err := p.Wait()
	s.addDispatchSpans(rq.Fn, ref, p, res, card)
	if err != nil {
		return statusOf(err), int16(card), []byte(err.Error()), p
	}
	return wire.StatusOK, int16(card), res.Output, p
}

// addDispatchSpans attaches the dispatcher's view of a settled job to
// the request's trace: a queue-wait span and a service span that tile
// the job's whole residency (their durations sum to the time between
// enqueue and the card finishing), plus one virtual child per card
// phase from the call's breakdown. No-op for unsampled requests.
func (s *Server) addDispatchSpans(fn uint16, ref trace.SpanRef, p *cluster.Pending, res *core.CallResult, card int) {
	if !ref.Valid() {
		return
	}
	sub, st, dn := p.TraceTimes()
	if sub == 0 || st == 0 {
		return // never reached a worker (routing or enqueue failure)
	}
	s.opts.Tracer.Add(ref, trace.Span{
		Name: "queue-wait", Layer: "cluster", Fn: fn, Card: card,
		StartNS: sub, DurNS: st - sub,
	})
	sref := s.opts.Tracer.Add(ref, trace.Span{
		Name: "service", Layer: "cluster", Fn: fn, Card: card,
		StartNS: st, DurNS: dn - st,
	})
	if res == nil {
		return
	}
	for ph := 0; ph < sim.NumPhases; ph++ {
		if d := res.Breakdown.Get(sim.Phase(ph)); d > 0 {
			s.opts.Tracer.Add(sref, trace.Span{
				Name: sim.Phase(ph).String(), Layer: "card", Fn: fn, Card: card,
				VirtPS: uint64(d),
			})
		}
	}
}

// statusOf maps dispatcher and context errors onto the wire vocabulary.
func statusOf(err error) wire.Status {
	switch {
	case errors.Is(err, cluster.ErrUnknownFunction):
		return wire.StatusNotFound
	case errors.Is(err, cluster.ErrQueueFull):
		return wire.StatusResourceExhausted
	case errors.Is(err, cluster.ErrStopped):
		return wire.StatusUnavailable
	case errors.Is(err, cluster.ErrChainSplit), errors.Is(err, core.ErrInputTooLarge):
		return wire.StatusInvalidArgument
	case errors.Is(err, context.DeadlineExceeded):
		return wire.StatusDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return wire.StatusUnavailable
	default:
		return wire.StatusInternal
	}
}

// observe records one finished (or refused) request into the metrics.
// Server latency is wall-clock — the network edge has no virtual clock
// — stored in the same picosecond unit the virtual histograms use. A
// sampled request stamps its trace id onto the latency histogram as an
// exemplar, linking the aggregate back to the concrete trace in
// /debug/traces.
func (s *Server) observe(st wire.Status, elapsed time.Duration, traceID uint64) {
	if s.opts.Metrics == nil {
		return
	}
	lbl := metrics.L("status", st.String())
	s.opts.Metrics.Counter("agile_server_requests_total", lbl).Inc()
	if elapsed > 0 {
		s.opts.Metrics.Histogram("agile_server_request_seconds", lbl).
			ObserveExemplar(sim.Time(elapsed.Nanoseconds())*sim.Nanosecond, traceID)
	}
}

// admitted is what the live request table keeps beside a request's
// Call: when it was admitted, and its trace id (0 when not sampled).
type admitted struct {
	start   time.Time
	traceID uint64
}

// InflightRequest is one /debug/requests row.
type InflightRequest struct {
	ID      uint64 `json:"id"`
	Fn      uint16 `json:"fn"`
	Conn    string `json:"conn"`
	AgeMS   int64  `json:"age_ms"`
	TraceID string `json:"trace_id,omitempty"`
}

// InflightRequests snapshots the live request table, oldest first.
func (s *Server) InflightRequests() []InflightRequest {
	now := time.Now() //lint:wallclock request age is operator-facing wall time
	s.reqMu.Lock()
	rows := make([]InflightRequest, 0, len(s.reqs))
	for rq, a := range s.reqs {
		row := InflightRequest{
			ID:    rq.ID,
			Fn:    rq.Fn,
			Conn:  rq.Conn,
			AgeMS: now.Sub(a.start).Milliseconds(),
		}
		if a.traceID != 0 {
			row.TraceID = "0x" + strconv.FormatUint(a.traceID, 16)
		}
		rows = append(rows, row)
	}
	s.reqMu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].AgeMS != rows[j].AgeMS {
			return rows[i].AgeMS > rows[j].AgeMS
		}
		return rows[i].ID < rows[j].ID
	})
	return rows
}

// DebugRequestsHandler serves the in-flight request table as JSON —
// the /debug/requests endpoint: every admitted request with its age,
// function, source connection and (when sampled) trace id.
func (s *Server) DebugRequestsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Inflight int               `json:"inflight"`
			Requests []InflightRequest `json:"requests"`
		}{Inflight: s.Inflight(), Requests: s.InflightRequests()})
	})
}
