package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agilefpga/internal/metrics"
	"agilefpga/internal/testutil"
	"agilefpga/internal/wire"
)

// TestMain fails the package if any client goroutine — a connection
// reader, a demux, a retry sleeper — outlives its test. Abrupt
// connection close and drain-during-pipeline below exist precisely to
// exercise the reader's exit paths.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := testutil.CheckGoroutineLeaks(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// fakeServer accepts connections and runs handler on each, tracking
// every conn so close tears everything down deterministically.
type fakeServer struct {
	ln       net.Listener
	wg       sync.WaitGroup
	mu       sync.Mutex
	conns    []net.Conn
	accepted atomic.Int64
}

func newFakeServer(t *testing.T, handler func(net.Conn)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln}
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fs.accepted.Add(1)
			fs.mu.Lock()
			fs.conns = append(fs.conns, c)
			fs.mu.Unlock()
			fs.wg.Add(1)
			go func() {
				defer fs.wg.Done()
				defer c.Close()
				handler(c)
			}()
		}
	}()
	t.Cleanup(fs.close)
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) close() {
	fs.ln.Close()
	fs.mu.Lock()
	for _, c := range fs.conns {
		c.Close()
	}
	fs.mu.Unlock()
	fs.wg.Wait()
}

// echo answers each request immediately with its own payload.
func echo(c net.Conn) {
	for {
		req, err := readRequest(c)
		if err != nil {
			return
		}
		wire.WriteResponse(c, &wire.Response{ID: req.ID, Status: wire.StatusOK, Payload: req.Payload})
	}
}

// TestMuxOutOfOrderResponses pins the demultiplexer contract: the
// server answers a whole pipeline of requests in reverse order, and
// every concurrent Call still receives exactly its own bytes.
func TestMuxOutOfOrderResponses(t *testing.T) {
	const n = 8
	fs := newFakeServer(t, func(c net.Conn) {
		reqs := make([]*wire.Request, 0, n)
		for len(reqs) < n {
			req, err := readRequest(c)
			if err != nil {
				return
			}
			reqs = append(reqs, req)
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			wire.WriteResponse(c, &wire.Response{ID: reqs[i].ID, Status: wire.StatusOK, Card: int16(i), Payload: reqs[i].Payload})
		}
	})
	cl, err := Dial(fs.addr(), Options{PoolSize: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := []byte(fmt.Sprintf("payload-%d", i))
			out, _, err := cl.Call(context.Background(), 7, want)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(out, want) {
				errs[i] = fmt.Errorf("call %d got %q", i, out)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	if got := fs.accepted.Load(); got != 1 {
		t.Errorf("server saw %d connections, want 1 — pool must multiplex", got)
	}
}

// TestMuxSlowDoesNotBlockFast is the deterministic head-of-line test:
// a slow request is held by the server until a fast request submitted
// after it has already completed on the same connection.
func TestMuxSlowDoesNotBlockFast(t *testing.T) {
	slowSeen := make(chan uint64, 1)   // server → test: the slow request arrived
	releaseSlow := make(chan struct{}) // test → server: answer it now
	fs := newFakeServer(t, func(c net.Conn) {
		slow, err := readRequest(c)
		if err != nil {
			return
		}
		slowSeen <- slow.ID
		for {
			req, err := readRequest(c)
			if err != nil {
				return
			}
			if req.Fn == 99 { // the parting shot: answer the held request
				<-releaseSlow
				wire.WriteResponse(c, &wire.Response{ID: slow.ID, Status: wire.StatusOK, Payload: slow.Payload})
				wire.WriteResponse(c, &wire.Response{ID: req.ID, Status: wire.StatusOK, Payload: req.Payload})
				continue
			}
			wire.WriteResponse(c, &wire.Response{ID: req.ID, Status: wire.StatusOK, Payload: req.Payload})
		}
	})
	cl, err := Dial(fs.addr(), Options{PoolSize: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	slowDone := make(chan error, 1)
	go func() {
		_, _, err := cl.Call(context.Background(), 1, []byte("slow"))
		slowDone <- err
	}()
	<-slowSeen // the slow request is parked server-side
	// A fast call issued afterwards completes while slow is still held.
	if out, _, err := cl.Call(context.Background(), 2, []byte("fast")); err != nil || !bytes.Equal(out, []byte("fast")) {
		t.Fatalf("fast call behind a stalled request: out=%q err=%v", out, err)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call settled before release: %v", err)
	default:
	}
	close(releaseSlow)
	go cl.Call(context.Background(), 99, []byte("release")) //nolint — answered alongside slow
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestMuxAbruptConnClose: the server slams the connection with calls
// in flight. Every waiter must settle with a retryable transport
// error (no hang), the broken conn must leave the pool, and the next
// call must transparently redial.
func TestMuxAbruptConnClose(t *testing.T) {
	var kill atomic.Bool
	kill.Store(true)
	fs := newFakeServer(t, func(c net.Conn) {
		req, err := readRequest(c)
		if err != nil {
			return
		}
		if kill.Load() {
			return // deferred close in the harness slams the conn unanswered
		}
		wire.WriteResponse(c, &wire.Response{ID: req.ID, Status: wire.StatusOK, Payload: req.Payload})
		echo(c)
	})
	cl, err := Dial(fs.addr(), Options{PoolSize: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, _, err = cl.Call(context.Background(), 1, []byte("doomed"))
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TransportError", err)
	}
	if !retryable(err) {
		t.Fatal("an abrupt close must be retryable")
	}
	kill.Store(false)
	// The dead conn's slot was reclaimed: a fresh call redials and works.
	out, _, err := cl.Call(context.Background(), 1, []byte("revived"))
	if err != nil || !bytes.Equal(out, []byte("revived")) {
		t.Fatalf("call after redial: out=%q err=%v", out, err)
	}
}

// TestMuxCloseDrainsPipeline: Close with a pipeline in flight settles
// every waiter (no goroutine parks forever on its response channel)
// and waits for the readers to exit — the leak TestMain seals it.
func TestMuxCloseDrainsPipeline(t *testing.T) {
	const n = 4
	held := make(chan struct{}, n)
	fs := newFakeServer(t, func(c net.Conn) {
		for {
			if _, err := readRequest(c); err != nil {
				return
			}
			held <- struct{}{} // park every request unanswered
		}
	})
	cl, err := Dial(fs.addr(), Options{PoolSize: 2, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = cl.Call(context.Background(), 1, []byte{byte(i + 1)})
		}(i)
	}
	for i := 0; i < n; i++ {
		<-held // all n requests are parked server-side
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		var te *TransportError
		if !errors.As(err, &te) {
			t.Errorf("call %d settled with %v, want TransportError", i, err)
		}
	}
	// The client is closed for business.
	if _, _, err := cl.Call(context.Background(), 1, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("call after Close = %v, want ErrClosed", err)
	}
}

// TestMuxAbandonedCallDropsLateResponse: a call that times out
// unregisters its waiter; the late answer arriving afterwards must be
// dropped silently and the connection must stay healthy for new calls.
func TestMuxAbandonedCallDropsLateResponse(t *testing.T) {
	gate := make(chan struct{})
	fs := newFakeServer(t, func(c net.Conn) {
		req, err := readRequest(c)
		if err != nil {
			return
		}
		<-gate // outlive the caller's context
		wire.WriteResponse(c, &wire.Response{ID: req.ID, Status: wire.StatusOK, Payload: req.Payload})
		echo(c)
	})
	cl, err := Dial(fs.addr(), Options{PoolSize: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.Call(ctx, 1, []byte("abandoned"))
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call err = %v, want context.Canceled", err)
	}
	close(gate) // the stale response now lands on the demux
	out, _, err := cl.Call(context.Background(), 2, []byte("after"))
	if err != nil || !bytes.Equal(out, []byte("after")) {
		t.Fatalf("call after abandonment: out=%q err=%v", out, err)
	}
	if got := fs.accepted.Load(); got != 1 {
		t.Errorf("server saw %d connections, want 1 — a late response must not poison the conn", got)
	}
}

// TestMuxPoolBoundsConnections: far more concurrent calls than pool
// slots still dial at most PoolSize connections, and the per-conn
// inflight gauge returns to zero once the pipeline drains.
func TestMuxPoolBoundsConnections(t *testing.T) {
	fs := newFakeServer(t, echo)
	reg := metrics.NewRegistry()
	cl, err := Dial(fs.addr(), Options{PoolSize: 2, MaxRetries: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte{byte(i), byte(i >> 8), 1}
			out, _, err := cl.Call(context.Background(), 3, payload)
			if err != nil || !bytes.Equal(out, payload) {
				t.Errorf("call %d: out=%q err=%v", i, out, err)
			}
		}(i)
	}
	wg.Wait()
	if got := fs.accepted.Load(); got > 2 {
		t.Errorf("server saw %d connections, want ≤ 2", got)
	}
	for slot := 0; slot < 2; slot++ {
		g := reg.Gauge("agile_net_mux_inflight_per_conn", metrics.L("conn", fmt.Sprint(slot)))
		if v := g.Value(); v != 0 {
			t.Errorf("conn %d inflight gauge = %d after drain, want 0", slot, v)
		}
	}
}

// TestMuxWriteDeadline: an expired context fails before any bytes move.
func TestMuxExpiredContextFailsFast(t *testing.T) {
	fs := newFakeServer(t, echo)
	cl, err := Dial(fs.addr(), Options{PoolSize: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := cl.Call(ctx, 1, []byte("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestCallChainStageCounts: a one-stage list is a plain call, and an
// empty or over-long list is the caller's mistake — refused before a
// byte is written, never retried, the connection left intact.
func TestCallChainStageCounts(t *testing.T) {
	fs := newFakeServer(t, echo)
	c, err := Dial(fs.addr(), Options{OnRetry: func(int, error) { t.Error("retried a bad stage list") }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, stages := range [][]uint16{nil, make([]uint16, wire.MaxChainStages+1)} {
		if _, _, err := c.CallChain(context.Background(), stages, []byte("x")); !errors.Is(err, wire.ErrBadChain) {
			t.Errorf("%d stages: err %v, want ErrBadChain", len(stages), err)
		}
	}
	out, _, err := c.CallChain(context.Background(), []uint16{7}, []byte("one"))
	if err != nil || string(out) != "one" {
		t.Fatalf("one-stage chain: %q, %v", out, err)
	}
	if n := fs.accepted.Load(); n != 1 {
		t.Fatalf("%d connections dialled, want 1", n)
	}
}

// readRequest reads one request frame, copying the payload out of the
// pooled buffer so the request outlives the frame.
func readRequest(r io.Reader) (*wire.Request, error) {
	req := new(wire.Request)
	fr, err := wire.ReadRequestFrame(r, req)
	if err != nil {
		return nil, err
	}
	req.Payload = append([]byte(nil), req.Payload...)
	fr.Release()
	return req, nil
}
