// Package client is the network counterpart of internal/server: a
// multiplexing, retrying wire-protocol client. Concurrent Calls are
// pipelined over a small pool of connections — each connection carries
// many requests in flight, a dedicated reader goroutine demultiplexes
// responses (which may arrive out of order) back to waiting calls by
// request id, and new calls are routed to the connection with the
// fewest requests in flight. Calls carry the context deadline to the
// server as a relative budget, and retry transient failures —
// RESOURCE_EXHAUSTED, UNAVAILABLE, and transport errors — with
// jittered exponential backoff until the context or the retry budget
// runs out. Requests are pure functions of their payload, so retrying
// after an ambiguous transport failure is safe.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"agilefpga/internal/metrics"
	"agilefpga/internal/trace"
	"agilefpga/internal/wire"
)

// Defaults for Options.
const (
	DefaultPoolSize    = 4
	DefaultDialTimeout = 5 * time.Second
	DefaultMaxRetries  = 4
	DefaultBaseBackoff = 5 * time.Millisecond
	DefaultMaxBackoff  = 500 * time.Millisecond
)

// ErrClosed is returned by Call after Close.
var ErrClosed = errors.New("client: closed")

// Options tunes the client. The zero value of every field selects a
// default; MaxRetries < 0 disables retries.
type Options struct {
	// PoolSize bounds multiplexed connections (default 4). Concurrent
	// calls share connections — each connection pipelines many requests
	// — so the pool never grows past PoolSize no matter the concurrency;
	// new connections are dialled lazily while every live one is busy.
	PoolSize int
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// MaxRetries is the number of retries after the first attempt
	// (default 4; negative = no retries).
	MaxRetries int
	// BaseBackoff is the first retry's nominal delay (default 5ms);
	// each further retry doubles it, capped at MaxBackoff (default
	// 500ms). The actual delay is uniformly jittered in [d/2, d) so
	// synchronised clients desynchronise.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// OnRetry, if set, observes each retry decision (attempt counts
	// from 0) — used by tests and metrics wiring.
	OnRetry func(attempt int, err error)
	// JitterSeed seeds the backoff jitter PRNG, making retry schedules
	// reproducible in tests. Zero (the default) draws a random seed, so
	// production clients stay desynchronised from one another.
	JitterSeed uint64
	// Metrics, if set, receives the client series: the
	// agile_net_mux_inflight_per_conn gauge labelled by pool slot.
	Metrics *metrics.Registry
	// Tracer, if set, traces calls: every Call roots one span (head
	// sampling decides whether it is recorded), each attempt becomes a
	// child span, and sampled attempts ship their trace context in the
	// wire frame so the server's spans join the same trace.
	Tracer *trace.Tracer
}

// StatusError is a non-OK wire status answered by the server.
type StatusError struct {
	Status wire.Status
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server answered %s: %s", e.Status, e.Msg)
}

// Retryable reports whether the status is transient.
func (e *StatusError) Retryable() bool { return e.Status.Retryable() }

// TransportError is a connection-level failure (dial, write, read, or a
// response that broke the framing). Always retryable: the protocol is
// idempotent.
type TransportError struct {
	Err error
}

func (e *TransportError) Error() string { return "transport: " + e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// retryable classifies an attempt error.
func retryable(err error) bool {
	switch e := err.(type) {
	case *StatusError:
		return e.Retryable()
	case *TransportError:
		return true
	}
	return false
}

// waiter is one call's slot in its connection's demultiplexer: the
// reader fills resp (or err) and then signals ready. Waiters are
// pooled. The call that receives the signal ends the waiter's last use
// and recycles it; a call that abandons its wait (context expiry, write
// failure) drops it instead, because the reader may still be filling
// it.
type waiter struct {
	ready chan struct{} // capacity one: the reader's send never blocks
	dst   []byte        // the caller's buffer for the response payload
	resp  wire.Response // Payload is a copy in dst's array, or a fresh one
	err   error
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ready: make(chan struct{}, 1)} }}

// recycle returns a settled waiter to the pool; its signal has been
// received, so ready is empty again.
func (w *waiter) recycle() {
	w.dst, w.resp, w.err = nil, wire.Response{}, nil
	waiterPool.Put(w)
}

// muxConn is one multiplexed connection: many calls in flight, one
// reader goroutine routing responses back by request id.
type muxConn struct {
	c        net.Conn
	slot     int           // pool index, for the per-conn gauge label
	inflight atomic.Int64  // calls between register and settle
	done     chan struct{} // closed when the reader exits

	wmu sync.Mutex // serialises writes; a frame is never interleaved

	mu      sync.Mutex
	waiters map[uint64]*waiter // in-flight request id → its call
	err     error              // set once the connection breaks
}

// register installs a waiter for id whose response payload the reader
// copies into dst's array.
func (m *muxConn) register(id uint64, dst []byte) (*waiter, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	w := waiterPool.Get().(*waiter)
	w.dst = dst
	m.waiters[id] = w
	return w, nil
}

// unregister abandons a waiter (context expiry, write failure). A late
// response for the id is then legal and dropped by the reader.
func (m *muxConn) unregister(id uint64) {
	m.mu.Lock()
	delete(m.waiters, id)
	m.mu.Unlock()
}

// fail marks the connection broken and settles every outstanding
// waiter with err. Signals go out after the lock is released; each
// waiter is owned by exactly one call and its channel is buffered, so
// they cannot block.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	m.err = err
	ws := m.waiters
	m.waiters = nil
	m.mu.Unlock()
	for _, w := range ws {
		w.err = err
		w.ready <- struct{}{}
	}
}

// readLoop is the demultiplexer: it owns the read side of the
// connection, routing each response to the waiter that registered its
// id. Responses may arrive in any order — a slow request never blocks
// a fast one behind it. Reads go through a buffer, so a response that
// arrived whole costs one read. On read error the connection is dead:
// it leaves the pool and every outstanding call fails (retryably).
func (m *muxConn) readLoop(drop func(*muxConn)) {
	defer close(m.done)
	br := bufio.NewReader(m.c)
	var resp wire.Response
	for {
		fr, err := wire.ReadResponseFrame(br, &resp)
		if err != nil {
			drop(m)
			m.c.Close()
			m.fail(&TransportError{err})
			return
		}
		m.mu.Lock()
		w := m.waiters[resp.ID]
		delete(m.waiters, resp.ID)
		m.mu.Unlock()
		if w == nil {
			// Unknown id: the call abandoned its wait (context expiry)
			// and a late answer arrived. Dropping it is the contract.
			fr.Release()
			continue
		}
		w.resp = resp
		w.resp.Payload = append(w.dst[:0], resp.Payload...)
		fr.Release()
		w.ready <- struct{}{}
	}
}

// Client multiplexes calls to one server over a bounded connection
// pool. Safe for concurrent use.
type Client struct {
	addr   string
	opts   Options
	nextID atomic.Uint64
	bo     *Backoff

	dialMu sync.Mutex // serialises pool growth so a dial storm cannot overshoot

	mu     sync.Mutex
	conns  []*muxConn // fixed PoolSize slots; nil = not yet dialled
	closed bool

	gauges []*metrics.Gauge // per-slot inflight gauges (nil-safe)
}

// Dial validates the address by establishing the first pooled
// connection, and returns the client.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.PoolSize <= 0 {
		opts.PoolSize = DefaultPoolSize
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = DefaultDialTimeout
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = DefaultBaseBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = DefaultMaxBackoff
	}
	c := &Client{
		addr:   addr,
		opts:   opts,
		conns:  make([]*muxConn, opts.PoolSize),
		gauges: make([]*metrics.Gauge, opts.PoolSize),
		bo:     NewBackoff(opts.BaseBackoff, opts.MaxBackoff, opts.JitterSeed),
	}
	for i := range c.gauges {
		c.gauges[i] = opts.Metrics.Gauge("agile_net_mux_inflight_per_conn",
			metrics.L("conn", strconv.Itoa(i)))
	}
	if _, err := c.grow(); err != nil {
		return nil, err
	}
	return c, nil
}

// pick chooses the connection for a new call: the live connection with
// the fewest requests in flight, dialling into an empty pool slot
// first when every live connection is already busy.
func (c *Client) pick() (*muxConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		var best *muxConn
		hasEmpty := false
		for _, m := range c.conns {
			if m == nil {
				hasEmpty = true
				continue
			}
			if best == nil || m.inflight.Load() < best.inflight.Load() {
				best = m
			}
		}
		c.mu.Unlock()
		if best != nil && (!hasEmpty || best.inflight.Load() == 0) {
			return best, nil
		}
		m, err := c.grow()
		if m != nil {
			return m, nil
		}
		if err != nil {
			if best != nil {
				return best, nil // dial failed but a live conn can still carry the call
			}
			return nil, err
		}
		// grow lost a race (the pool filled meanwhile) — rescan.
	}
}

// grow dials one connection into the first empty pool slot and starts
// its reader. Returns (nil, nil) when the pool is already full.
func (c *Client) grow() (*muxConn, error) {
	c.dialMu.Lock()
	defer c.dialMu.Unlock()
	c.mu.Lock()
	slot := -1
	for i, m := range c.conns {
		if m == nil {
			slot = i
			break
		}
	}
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if slot < 0 {
		return nil, nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, &TransportError{err}
	}
	m := &muxConn{c: nc, slot: slot, done: make(chan struct{}), waiters: make(map[uint64]*waiter)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nc.Close()
		close(m.done)
		return nil, ErrClosed
	}
	c.conns[slot] = m
	c.mu.Unlock()
	go m.readLoop(c.dropConn)
	return m, nil
}

// dropConn frees a broken connection's pool slot so pick can redial.
func (c *Client) dropConn(m *muxConn) {
	c.mu.Lock()
	if m.slot < len(c.conns) && c.conns[m.slot] == m {
		c.conns[m.slot] = nil
	}
	c.mu.Unlock()
}

// Call runs function fn over payload on the server, returning the
// output and the serving card. The context deadline bounds the whole
// call including retries and is forwarded to the server as the
// request's remaining budget. Non-OK statuses surface as *StatusError;
// connection failures as *TransportError (after retries are spent).
func (c *Client) Call(ctx context.Context, fn uint16, payload []byte) ([]byte, int, error) {
	return c.callRoot(ctx, "call", []uint16{fn}, payload)
}

// CallChain runs the stage list over payload as one on-card dataflow
// chain on the server, returning the final stage's output and the
// serving card. The request ships as a single chain frame — the input
// crosses the network and the card's PCI link once, every intermediate
// result stays in card RAM — and the answer is an ordinary response
// frame. Deadlines, retries and backoff behave exactly as in Call (a
// chain is a pure function of its payload, so retrying is safe).
func (c *Client) CallChain(ctx context.Context, stages []uint16, payload []byte) ([]byte, int, error) {
	return c.callRoot(ctx, "chain", stages, payload)
}

// callRoot roots one span per call (named for the verb), one child per
// attempt. A nil tracer (or a sampled-out decision) yields zero refs and
// every span call below is a no-op — the untraced path allocates
// nothing.
func (c *Client) callRoot(ctx context.Context, verb string, stages []uint16, payload []byte) ([]byte, int, error) {
	var fn uint16
	if len(stages) > 0 {
		fn = stages[0]
	}
	ref := c.opts.Tracer.StartRoot(verb, "client", fn)
	out, card, err := c.CallRef(ctx, stages, payload, nil, ref)
	c.opts.Tracer.End(ref, spanStatus(err))
	return out, card, err
}

// CallRef runs the stage list (one function for a plain call) under a
// caller-owned parent span: attempts become children of parent and no
// root span is opened or ended here — the shape a proxy hop needs to
// keep one trace across client → router → backend. A tracer-less
// client forwards parent as the wire trace context unchanged, so
// context still propagates through a hop that records nothing itself.
//
// The output is copied into dst's array when it fits, else into a new
// one; nil dst always gives a fresh copy. After an error the call may
// have abandoned its wait while the response was being read, so a late
// answer can still be written into dst's array: the caller must not
// reuse that array.
func (c *Client) CallRef(ctx context.Context, stages []uint16, payload, dst []byte, parent trace.SpanRef) ([]byte, int, error) {
	if len(stages) == 0 || len(stages) > wire.MaxChainStages {
		return nil, -1, fmt.Errorf("%w: %d stages", wire.ErrBadChain, len(stages))
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, -1, err
		}
		aref := c.opts.Tracer.StartChild(parent, "attempt", "client", stages[0])
		wref := aref
		if !wref.Valid() {
			// Tracer-less (or sampled-out) hop: ship the caller's own
			// context so an upstream trace survives the forward.
			wref = parent
		}
		out, card, err := c.once(ctx, stages, payload, dst, wref)
		c.opts.Tracer.End(aref, spanStatus(err))
		if err == nil {
			return out, card, nil
		}
		if !retryable(err) || attempt >= c.opts.MaxRetries {
			return nil, card, err
		}
		if c.opts.OnRetry != nil {
			c.opts.OnRetry(attempt, err)
		}
		if err := c.bo.Sleep(ctx, attempt); err != nil {
			return nil, card, err
		}
	}
}

// spanStatus renders an attempt outcome as a span status string.
func spanStatus(err error) string {
	switch e := err.(type) {
	case nil:
		return "ok"
	case *StatusError:
		return e.Status.String()
	case *TransportError:
		return "transport"
	default:
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return "error"
}

// once is a single attempt, pipelined onto one multiplexed connection.
// A valid aref ships as the request's wire trace context, so the
// server's spans join this attempt's trace.
func (c *Client) once(ctx context.Context, stages []uint16, payload, dst []byte, aref trace.SpanRef) ([]byte, int, error) {
	m, err := c.pick()
	if err != nil {
		return nil, -1, err
	}
	var budget time.Duration
	dl, hasDL := ctx.Deadline()
	if hasDL {
		budget = time.Until(dl) //lint:wallclock context deadlines are wall time; the budget shipped on the wire is relative
		if budget <= 0 {
			return nil, -1, context.DeadlineExceeded
		}
	}
	id := c.nextID.Add(1)
	w, err := m.register(id, dst)
	if err != nil {
		return nil, -1, err // already a *TransportError from the reader
	}
	m.inflight.Add(1)
	c.gauges[m.slot].Inc()
	defer func() {
		m.inflight.Add(-1)
		c.gauges[m.slot].Dec()
	}()
	var tc wire.TraceContext
	if aref.Valid() {
		tc = wire.TraceContext{TraceID: aref.TraceID, SpanID: aref.SpanID, Flags: wire.FlagSampled}
	}
	m.wmu.Lock()
	if hasDL {
		m.c.SetWriteDeadline(dl)
	} else {
		m.c.SetWriteDeadline(time.Time{})
	}
	werr := wire.WriteRequest(m.c, &wire.Request{ID: id, Fn: stages[0], Next: stages[1:],
		Deadline: budget, Payload: payload, Trace: tc})
	m.wmu.Unlock()
	if werr != nil {
		m.unregister(id)
		// The stream may hold a torn frame — framing trust is gone, so
		// the connection dies; its reader reaps the other waiters.
		m.c.Close()
		return nil, -1, &TransportError{werr}
	}
	select {
	case <-ctx.Done():
		m.unregister(id)
		return nil, -1, ctx.Err()
	case <-w.ready:
	}
	resp, err := w.resp, w.err
	w.recycle()
	if err != nil {
		return nil, -1, err
	}
	if resp.Status != wire.StatusOK {
		return nil, int(resp.Card), &StatusError{Status: resp.Status, Msg: string(resp.Payload)}
	}
	return resp.Payload, int(resp.Card), nil
}

// Close closes every pooled connection and waits for their readers to
// exit. Calls still in flight settle with a transport error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := append([]*muxConn(nil), c.conns...)
	c.mu.Unlock()
	for _, m := range conns {
		if m != nil {
			m.c.Close()
		}
	}
	for _, m := range conns {
		if m != nil {
			<-m.done
		}
	}
	return nil
}
