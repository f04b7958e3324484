package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"agilefpga/internal/metrics"
	"agilefpga/internal/wire"
)

// FrontEnd is the connection loop a Server and a Router share: it
// accepts connections, reads pipelined request frames zero-copy,
// rejects a request id already in flight on its connection, refuses
// work while draining or at capacity, and hands every admitted request
// to a serving goroutine, which runs it through a Handler. Responses
// serialise through one write lock per connection and may leave out of
// order.
//
// A serving goroutine runs one request at a time, for the request's
// whole service time, so a slow request holds up neither its
// connection's reads nor any other request. Between requests it parks
// on the front end's idle channel, and the next admitted request goes
// to a parked goroutine; a new one starts only when none is parked.
// There are never more serving goroutines, busy and parked, than
// admission slots.
//
// A request is answered by Call.Reply, which retires its id before
// writing its response — a client may reuse the id the moment it reads
// the answer. When the handler returns, the front end releases the
// frame the payload aliases and recycles the Call, unless the handler
// orphaned it. A protocol error (broken framing, or a duplicate
// in-flight id) poisons the stream, so the connection closes.
type FrontEnd struct {
	name string // "server" or "router": the capacity refusal and error texts
	h    Handler
	reg  *metrics.Registry // the agile_server_* edge series; nil records nothing
	sem  chan struct{}

	// idle hands an admitted request to a parked serving goroutine.
	// closeConns closes it once, after every connection loop — every
	// sender — has exited; a parked goroutine then ends, a busy one
	// after its request.
	idle      chan *Call
	closeIdle sync.Once
	servers   atomic.Int32              // serving goroutines alive, busy or parked
	onServing func(fe *FrontEnd, d int) // hookServing when the front end was built

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	inflight sync.WaitGroup // admitted requests
	connWG   sync.WaitGroup // connection loops
}

// Handler is what a FrontEnd does with the requests it reads.
type Handler struct {
	// Serve runs one admitted request on a serving goroutine, which
	// runs nothing else until Serve returns. ctx carries the request's
	// deadline, counted from admission. Serve must answer with exactly
	// one rq.Reply, and must not keep rq once it returns: the Call is
	// recycled then.
	Serve func(ctx context.Context, rq *Call)
	// Refused, when set, observes a request the front end answered
	// itself without admitting it: a duplicate id, a drain or a full
	// house. Its payload is already released.
	Refused func(req *wire.Request, st wire.Status)
}

// Call is one request a FrontEnd read, as its Handler sees it. The
// embedded Request's Payload aliases a pooled frame buffer: the handler
// may use it until Reply. Calls are pooled, and a Call is valid until
// its handler returns.
type Call struct {
	wire.Request
	// Conn is the remote address of the request's connection.
	Conn string

	c        *frontConn
	fr       wire.Frame
	orphaned bool
	stages   [wire.MaxChainStages]uint16
}

var callPool = sync.Pool{New: func() any { return new(Call) }}

// newCall takes a Call from the pool for the next request on c.
func newCall(c *frontConn, remote string) *Call {
	rq := callPool.Get().(*Call)
	rq.Conn, rq.c = remote, c
	return rq
}

// orphan tells the front end that work the handler gave up on — a job
// still queued or running on a card — may yet read the request's
// payload. The front end then neither releases the frame nor recycles
// the Call; both are left to the garbage collector, which frees them
// once that work lets go.
func (rq *Call) orphan() { rq.orphaned = true }

// recycle ends the request: it releases the frame and returns the Call
// to the pool, unless the handler orphaned it.
func (rq *Call) recycle() {
	if rq.orphaned {
		return
	}
	rq.fr.Release()
	next := rq.Next[:0]
	*rq = Call{}
	rq.Next = next
	callPool.Put(rq)
}

// Stages is the request's stage list: Fn, then Next.
func (rq *Call) Stages() []uint16 {
	return append(append(rq.stages[:0], rq.Fn), rq.Next...)
}

// Reply answers the request: it retires the request's id on its
// connection and writes the response. Payload must not be used
// afterwards; the other fields stay readable until the handler returns.
func (rq *Call) Reply(st wire.Status, card int16, payload []byte) {
	rq.c.retire(rq.ID)
	rq.c.write(&wire.Response{ID: rq.ID, Status: st, Card: card, Payload: payload})
}

// frontConn is one connection's shared state: its write side and the
// ids of its requests in flight.
type frontConn struct {
	wmu sync.Mutex
	bw  *bufio.Writer

	idMu sync.Mutex
	ids  map[uint64]struct{}
}

func (c *frontConn) write(resp *wire.Response) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.WriteResponse(c.bw, resp); err != nil {
		return
	}
	c.bw.Flush()
}

// claim registers id as in flight, or reports that it already is.
func (c *frontConn) claim(id uint64) bool {
	c.idMu.Lock()
	defer c.idMu.Unlock()
	if _, dup := c.ids[id]; dup {
		return false
	}
	c.ids[id] = struct{}{}
	return true
}

func (c *frontConn) retire(id uint64) {
	c.idMu.Lock()
	delete(c.ids, id)
	c.idMu.Unlock()
}

// NewFrontEnd builds a front end admitting at most maxInflight requests
// at once. name labels its refusals ("<name> at capacity"); reg, when
// non-nil, receives the agile_server_* connection, error and in-flight
// series.
func NewFrontEnd(name string, maxInflight int, reg *metrics.Registry, h Handler) *FrontEnd {
	return &FrontEnd{
		name:      name,
		h:         h,
		reg:       reg,
		sem:       make(chan struct{}, maxInflight),
		idle:      make(chan *Call),
		onServing: hookServing,
		conns:     make(map[net.Conn]struct{}),
	}
}

// hookServing, when set by tests, is given to every front end built
// afterwards, and sees each of its serving goroutines start (+1) and
// exit (-1).
var hookServing func(fe *FrontEnd, d int)

// Serve accepts connections on ln until Shutdown or Close, then
// returns ErrServerClosed. One front end serves at most one listener.
func (fe *FrontEnd) Serve(ln net.Listener) error {
	fe.mu.Lock()
	if fe.draining {
		fe.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	if fe.ln != nil {
		fe.mu.Unlock()
		return errors.New(fe.name + ": Serve called twice")
	}
	fe.ln = ln
	fe.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if fe.Draining() {
				return ErrServerClosed
			}
			return err
		}
		fe.mu.Lock()
		if fe.draining {
			fe.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		fe.conns[conn] = struct{}{}
		fe.connWG.Add(1)
		fe.mu.Unlock()
		fe.reg.Counter("agile_server_accepted_total").Inc()
		fe.reg.Gauge("agile_server_connections").Inc()
		go fe.handleConn(conn)
	}
}

// handleConn reads frames off one connection until it breaks. Only a
// stream that broke framing counts as a decode error: a close at a frame
// boundary (io.EOF) and a transport failure (a net.Error: reset, or the
// connection closed under a drain) do not.
func (fe *FrontEnd) handleConn(nc net.Conn) {
	defer fe.connWG.Done()
	defer func() {
		fe.mu.Lock()
		delete(fe.conns, nc)
		fe.mu.Unlock()
		nc.Close()
		fe.reg.Gauge("agile_server_connections").Dec()
	}()
	br := bufio.NewReader(nc)
	remote := nc.RemoteAddr().String()
	c := &frontConn{bw: bufio.NewWriter(nc), ids: make(map[uint64]struct{})}
	for {
		rq := newCall(c, remote)
		fr, err := wire.ReadRequestFrame(br, &rq.Request)
		if err != nil {
			var ne net.Error
			if !errors.Is(err, io.EOF) && !errors.As(err, &ne) {
				fe.reg.Counter("agile_server_decode_errors_total").Inc()
			}
			rq.recycle()
			return
		}
		if !c.claim(rq.ID) {
			// Two in-flight requests with one id would make the response
			// stream ambiguous — a protocol error, answered explicitly
			// (never a hang) and fatal to the connection. The id stays
			// with the request that holds it.
			fr.Release()
			fe.reg.Counter("agile_server_protocol_errors_total").Inc()
			c.write(&wire.Response{ID: rq.ID, Status: wire.StatusInvalidArgument, Card: -1,
				Payload: []byte(fmt.Sprintf("request id %d already in flight on this connection", rq.ID))})
			fe.refused(rq, wire.StatusInvalidArgument)
			rq.recycle()
			return
		}
		rq.fr = fr
		fe.admit(rq)
	}
}

// admit admits one request and, if admitted, hands it to a serving
// goroutine. The draining check, semaphore acquisition and in-flight
// registration happen atomically under mu so Shutdown's drain wait
// cannot race a late admission.
func (fe *FrontEnd) admit(rq *Call) {
	fe.mu.Lock()
	if fe.draining {
		fe.mu.Unlock()
		fe.refuse(rq, wire.StatusUnavailable, DrainMessage)
		rq.recycle()
		return
	}
	select {
	case fe.sem <- struct{}{}:
	default:
		fe.mu.Unlock()
		fe.refuse(rq, wire.StatusResourceExhausted,
			fmt.Sprintf("%s at capacity (%d in flight)", fe.name, cap(fe.sem)))
		rq.recycle()
		return
	}
	fe.inflight.Add(1)
	fe.mu.Unlock()
	fe.reg.Gauge("agile_server_inflight").Inc()
	fe.handOff(rq)
}

// handOff gives an admitted request to a parked serving goroutine, or
// starts one when none is parked. A goroutine that has finished a
// request frees its slot a moment before it parks; when one slot per
// goroutine is already taken, handOff waits for such a goroutine
// rather than start another. One must be on its way: rq holds a slot
// no goroutine serves, so not every goroutine can be busy.
func (fe *FrontEnd) handOff(rq *Call) {
	select {
	case fe.idle <- rq:
		return
	default:
	}
	for n := fe.servers.Load(); n < int32(cap(fe.sem)); n = fe.servers.Load() {
		if fe.servers.CompareAndSwap(n, n+1) {
			go fe.serveLoop(rq)
			return
		}
	}
	fe.idle <- rq
}

// serveLoop is one serving goroutine: it serves rq, then each request
// handed to it while parked, until the idle channel closes.
func (fe *FrontEnd) serveLoop(rq *Call) {
	defer fe.servers.Add(-1)
	if fe.onServing != nil {
		fe.onServing(fe, 1)
		defer fe.onServing(fe, -1)
	}
	for ok := true; ok; rq, ok = <-fe.idle {
		fe.serve(rq)
	}
}

func (fe *FrontEnd) serve(rq *Call) {
	defer func() {
		<-fe.sem
		fe.inflight.Done()
		fe.reg.Gauge("agile_server_inflight").Dec()
	}()
	// The request's budget starts at admission, so time spent in
	// dispatch counts against the deadline the client asked for.
	ctx := context.Background()
	if rq.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rq.Deadline)
		defer cancel()
	}
	fe.h.Serve(ctx, rq)
	rq.recycle()
}

// refuse answers a request that was never admitted.
func (fe *FrontEnd) refuse(rq *Call, st wire.Status, msg string) {
	rq.Reply(st, -1, []byte(msg))
	fe.refused(rq, st)
}

func (fe *FrontEnd) refused(rq *Call, st wire.Status) {
	if fe.h.Refused != nil {
		fe.h.Refused(&rq.Request, st)
	}
}

// Inflight reports the requests admitted and not yet finished.
func (fe *FrontEnd) Inflight() int { return len(fe.sem) }

// Draining reports whether Shutdown or Close has begun — once true,
// every new request is refused with UNAVAILABLE + DrainMessage.
func (fe *FrontEnd) Draining() bool {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	return fe.draining
}

// Shutdown gracefully drains the front end: the listener closes, new
// requests are refused with UNAVAILABLE + DrainMessage (so an upstream
// router ejects this node cleanly), admitted requests finish and flush
// their responses, then connections close. It returns ctx.Err() if the
// drain outlives ctx (connections are then closed abruptly).
func (fe *FrontEnd) Shutdown(ctx context.Context) error {
	fe.stopAccepting()
	done := make(chan struct{})
	go func() {
		fe.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	fe.closeConns()
	return err
}

// Close shuts the front end down without waiting for in-flight
// requests.
func (fe *FrontEnd) Close() error {
	fe.stopAccepting()
	fe.closeConns()
	return nil
}

func (fe *FrontEnd) stopAccepting() {
	fe.mu.Lock()
	fe.draining = true
	ln := fe.ln
	fe.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// closeConns closes every connection and waits for their loops to
// exit. With no loop left to admit a request, nothing sends on the
// idle channel any more, so it is closed: parked serving goroutines
// end now, busy ones after their request. Neither is waited for.
func (fe *FrontEnd) closeConns() {
	fe.mu.Lock()
	for c := range fe.conns {
		c.Close()
	}
	fe.mu.Unlock()
	fe.connWG.Wait()
	fe.closeIdle.Do(func() { close(fe.idle) })
}
