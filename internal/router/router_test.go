package router_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"testing"
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/client"
	"agilefpga/internal/cluster"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/metrics"
	"agilefpga/internal/router"
	"agilefpga/internal/server"
	"agilefpga/internal/trace"
	"agilefpga/internal/wire"
)

// node is one in-process agilenetd backend: cluster + server + its
// listener, restartable on the same address for reinstatement tests.
type node struct {
	addr string
	cl   *cluster.Cluster
	srv  *server.Server
	serr chan error
}

func startNode(t *testing.T, addr string, cards int) *node {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return serveNode(t, ln, cards)
}

// serveNode runs a backend of the given number of cards on ln.
func serveNode(t *testing.T, ln net.Listener, cards int) *node {
	t.Helper()
	cl, err := cluster.New(cards, cluster.ModeAffinity,
		core.Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	srv := server.New(cl, server.Options{})
	n := &node{addr: ln.Addr().String(), cl: cl, srv: srv, serr: make(chan error, 1)}
	go func() { n.serr <- srv.Serve(ln) }()
	return n
}

func (n *node) stop() {
	n.srv.Close()
	<-n.serr
	n.cl.Close()
}

// fleet is N backends plus teardown. The router under test is built
// separately so tests control its options.
type fleet struct {
	nodes []*node
	addrs []string
}

func newFleet(t *testing.T, n, cards int) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		nd := startNode(t, "127.0.0.1:0", cards)
		f.nodes = append(f.nodes, nd)
		f.addrs = append(f.addrs, nd.addr)
	}
	t.Cleanup(func() {
		for _, nd := range f.nodes {
			if nd != nil {
				nd.stop()
			}
		}
	})
	return f
}

// kill abruptly stops node i (connections die mid-flight).
func (f *fleet) kill(t *testing.T, i int) {
	t.Helper()
	f.nodes[i].stop()
	f.nodes[i] = nil
}

// restart brings node i back on its original address.
func (f *fleet) restart(t *testing.T, i int, cards int) {
	t.Helper()
	f.nodes[i] = startNode(t, f.addrs[i], cards)
}

func newTestRouter(t *testing.T, f *fleet, opts router.Options) (*router.Router, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	if opts.Metrics == nil {
		opts.Metrics = reg
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	r, err := router.New(f.addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, reg
}

// serveWire puts r on a loopback listener until the test ends, and
// returns the listener's address.
func serveWire(t *testing.T, r *router.Router) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveWireOn(t, r, ln)
}

// serveWireOn is serveWire on a listener the test made.
func serveWireOn(t *testing.T, r *router.Router, ln net.Listener) string {
	t.Helper()
	serr := make(chan error, 1)
	go func() { serr <- r.Serve(ln) }()
	t.Cleanup(func() {
		r.Close()
		<-serr
	})
	return ln.Addr().String()
}

// TestRouterEndToEndMatchesDirectCall proves the hop is transparent:
// bytes routed through the fleet equal bytes from a direct cluster
// call, for several functions landing on different backends.
func TestRouterEndToEndMatchesDirectCall(t *testing.T) {
	f := newFleet(t, 2, 2)
	r, _ := newTestRouter(t, f, router.Options{})
	in := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, fn := range []*algos.Function{algos.CRC32(), algos.MD5(), algos.SHA1(), algos.FIR()} {
		direct, _, err := f.nodes[0].cl.Call(fn.ID(), in)
		if err != nil {
			t.Fatal(err)
		}
		got, card, err := r.Call(context.Background(), fn.ID(), in)
		if err != nil {
			t.Fatalf("%s: %v", fn.Name(), err)
		}
		if !bytes.Equal(got, direct.Output) {
			t.Fatalf("%s: routed output %x != direct %x", fn.Name(), got, direct.Output)
		}
		if card < 0 {
			t.Fatalf("%s: served by card %d", fn.Name(), card)
		}
	}
}

// TestRouterAffinity pins the routing property the fleet relies on:
// absent overload, every call for one function lands on exactly one
// backend — the ring primary of the function id itself, so a caller can
// predict it with Ring.Lookup — for every function in the bank. A
// repeat pass then finds the bank resident where affinity put it: the
// fleet's aggregate card hit rate reaches the single-node ceiling
// (≥ 0.9) that spraying calls over backends would collapse.
func TestRouterAffinity(t *testing.T) {
	f := newFleet(t, 3, 4)
	r, reg := newTestRouter(t, f, router.Options{})
	ring := router.NewRing(0, 1) // newTestRouter's seed
	for _, addr := range f.addrs {
		ring.Add(addr)
	}
	forwards := func(addr string) uint64 {
		return reg.Counter("agile_router_forwards_total",
			metrics.L("backend", addr), metrics.L("status", "ok")).Value()
	}
	cardStats := func() (hits, requests uint64) {
		for _, nd := range f.nodes {
			st := nd.cl.Stats().Total
			hits += st.Hits
			requests += st.Requests
		}
		return hits, requests
	}
	const calls = 4
	bank := algos.Bank()
	for _, fn := range bank {
		before := make([]uint64, len(f.addrs))
		for i, addr := range f.addrs {
			before[i] = forwards(addr)
		}
		in := make([]byte, fn.BlockBytes)
		for i := 0; i < calls; i++ {
			if _, _, err := r.Call(context.Background(), fn.ID(), in); err != nil {
				t.Fatalf("%s: %v", fn.Name(), err)
			}
		}
		primary := ring.Lookup(fn.ID())
		for i, addr := range f.addrs {
			want := uint64(0)
			if addr == primary {
				want = calls
			}
			if got := forwards(addr) - before[i]; got != want {
				t.Fatalf("%s: backend %s served %d of %d; ring primary is %s",
					fn.Name(), addr, got, calls, primary)
			}
		}
	}
	hits0, requests0 := cardStats()
	for _, fn := range bank {
		if _, _, err := r.Call(context.Background(), fn.ID(), make([]byte, fn.BlockBytes)); err != nil {
			t.Fatalf("%s: %v", fn.Name(), err)
		}
	}
	hits, requests := cardStats()
	if rate := float64(hits-hits0) / float64(requests-requests0); rate < 0.9 {
		t.Fatalf("repeat pass over the bank: aggregate card hit rate %.3f, want >= 0.9", rate)
	}
}

// TestRouterSpill drives one hot function with more concurrency than
// the spill threshold: calls must overflow onto a ring replica (both
// backends serve, spills counter advances) — the load-aware
// replication behaviour.
func TestRouterSpill(t *testing.T) {
	f := newFleet(t, 2, 1)
	r, reg := newTestRouter(t, f, router.Options{SpillThreshold: 1, Replication: 2})
	fn := algos.SHA256().ID()
	in := make([]byte, 64)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := r.Call(context.Background(), fn, in); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	var spills uint64
	served := 0
	for _, b := range r.Backends() {
		spills += b.Spills
		if reg.Counter("agile_router_forwards_total",
			metrics.L("backend", b.Addr), metrics.L("status", "ok")).Value() > 0 {
			served++
		}
	}
	if spills == 0 {
		t.Fatal("no spills recorded at threshold 1 under 64-way concurrency")
	}
	if served != 2 {
		t.Fatalf("spilled traffic reached %d backends, want 2", served)
	}
}

// TestRouterKillFailoverAndReinstate is the availability contract: a
// backend dying mid-run causes zero failed well-formed requests (its
// traffic retries onto survivors after ejection), and when the node
// returns the probe loop reinstates it.
func TestRouterKillFailoverAndReinstate(t *testing.T) {
	if testing.Short() {
		t.Skip("polls real probe timers; skipped in -short mode")
	}
	f := newFleet(t, 3, 1)
	r, _ := newTestRouter(t, f, router.Options{
		ProbeBase: 10 * time.Millisecond, ProbeMax: 100 * time.Millisecond,
	})
	in := []byte{1, 2, 3, 4}
	fns := []uint16{algos.CRC32().ID(), algos.MD5().ID(), algos.SHA1().ID(),
		algos.FIR().ID(), algos.AES128().ID(), algos.DES().ID()}
	call := func(i int) {
		if _, _, err := r.Call(context.Background(), fns[i%len(fns)], in); err != nil {
			t.Errorf("call %d failed: %v", i, err)
		}
	}
	for i := 0; i < 30; i++ {
		call(i)
	}
	f.kill(t, 1)
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			call(i)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var ejections uint64
	for _, b := range r.Backends() {
		ejections += b.Ejections
	}
	if ejections == 0 {
		t.Fatal("killed backend was never ejected")
	}

	f.restart(t, 1, 1)
	deadline := time.Now().Add(10 * time.Second) //lint:wallclock test polls for probe-based reinstatement in real time
	for {
		var reinstated uint64
		for _, b := range r.Backends() {
			reinstated += b.Reinstatements
		}
		if reinstated > 0 {
			break
		}
		if time.Now().After(deadline) { //lint:wallclock test polls for probe-based reinstatement in real time
			t.Fatal("restarted backend never reinstated")
		}
		time.Sleep(5 * time.Millisecond) //lint:wallclock test polls for probe-based reinstatement in real time
	}
	for i := 0; i < 30; i++ {
		call(i)
	}
}

// startStub runs a wire-speaking backend that answers each request,
// in the request's own goroutine, with the response answer gives after
// the delay it gives, so a delayed answer holds up no other.
func startStub(t *testing.T, answer func(req *wire.Request) (time.Duration, wire.Response)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	conns := make(map[net.Conn]struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns[c] = struct{}{}
			mu.Unlock()
			wg.Add(1)
			go func(c net.Conn) {
				defer wg.Done()
				var wmu sync.Mutex
				br := bufio.NewReader(c)
				for {
					req := new(wire.Request)
					fr, err := wire.ReadRequestFrame(br, req)
					if err != nil {
						return
					}
					req.Payload = append([]byte(nil), req.Payload...)
					fr.Release()
					wg.Add(1)
					go func() {
						defer wg.Done()
						delay, resp := answer(req)
						time.Sleep(delay) //lint:wallclock the stub times its answer against the router's real deadline
						resp.ID = req.ID
						wmu.Lock()
						wire.WriteResponse(c, &resp)
						wmu.Unlock()
					}()
				}
			}(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// startDrainStub runs a wire-speaking backend stuck mid-drain: every
// request is answered UNAVAILABLE + server.DrainMessage, exactly what
// a draining agilenetd sends while its listener is still reachable.
func startDrainStub(t *testing.T) string {
	return startStub(t, func(*wire.Request) (time.Duration, wire.Response) {
		return 0, wire.Response{Status: wire.StatusUnavailable, Card: -1, Payload: []byte(server.DrainMessage)}
	})
}

// TestRouterDrainEjection: a draining backend answers UNAVAILABLE +
// DrainMessage; the router must eject it on the FIRST such answer —
// drain bypasses the consecutive-failure threshold — while every call
// keeps succeeding on the survivor.
func TestRouterDrainEjection(t *testing.T) {
	f := newFleet(t, 1, 1)
	stub := startDrainStub(t)
	reg := metrics.NewRegistry()
	r, err := router.New([]string{stub, f.addrs[0]}, router.Options{
		// A huge threshold proves the drain path ejects on its own.
		EjectAfter: 1000,
		Seed:       1,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	in := []byte{5, 5, 5, 5}
	fns := []*algos.Function{algos.CRC32(), algos.MD5(), algos.SHA1(), algos.FIR(),
		algos.SHA256(), algos.AES128(), algos.DES(), algos.FFT()}
	for i, fn := range fns {
		if _, _, err := r.Call(context.Background(), fn.ID(), in); err != nil {
			t.Fatalf("call %d (%s): %v", i, fn.Name(), err)
		}
	}
	drained := false
	for _, b := range r.Backends() {
		if b.Addr == stub && b.Ejections > 0 && b.State != "healthy" {
			drained = true
		}
	}
	if !drained {
		t.Fatalf("draining backend was not ejected: %+v", r.Backends())
	}
}

// TestRoutedConcurrentCalls drives 32 goroutines through the wire
// router at once, mixing functions and payloads from 8 B to 4 KiB, so
// the router's pooled answer buffers grow and change hands between
// requests. Every output must equal the function's reference.
func TestRoutedConcurrentCalls(t *testing.T) {
	f := newFleet(t, 3, 2)
	r, _ := newTestRouter(t, f, router.Options{})
	c, err := client.Dial(serveWire(t, r), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fns := []*algos.Function{algos.CRC32(), algos.SHA256(), algos.AES128(),
		algos.DES(), algos.FIR(), algos.MD5()}
	const workers, calls = 32, 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				fn := fns[(g+i)%len(fns)]
				in := make([]byte, 8<<((g*calls+i)%10)) // 8 B … 4 KiB
				for j := range in {
					in[j] = byte(g*31 + i*7 + j)
				}
				want, err := fn.Exec(in)
				if err != nil {
					t.Error(err)
					return
				}
				got, _, err := c.Call(context.Background(), fn.ID(), in)
				if err != nil {
					t.Errorf("worker %d call %d (%s, %d B): %v", g, i, fn.Name(), len(in), err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("worker %d call %d (%s, %d B): routed output differs from the reference", g, i, fn.Name(), len(in))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRouterWireFrontEnd puts the router on the wire: an ordinary mux
// client dials the router as if it were a single agilenetd node, and
// the hop stays transparent — outputs match, deadlines propagate, the
// hop-overhead histogram fills.
func TestRouterWireFrontEnd(t *testing.T) {
	f := newFleet(t, 2, 2)
	r, reg := newTestRouter(t, f, router.Options{})
	c, err := client.Dial(serveWire(t, r), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := []byte{1, 1, 2, 3, 5, 8, 13, 21}
	for _, fn := range []*algos.Function{algos.CRC32(), algos.MD5(), algos.FFT()} {
		direct, _, err := f.nodes[0].cl.Call(fn.ID(), in)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		got, _, err := c.Call(ctx, fn.ID(), in)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", fn.Name(), err)
		}
		if !bytes.Equal(got, direct.Output) {
			t.Fatalf("%s: wire output %x != direct %x", fn.Name(), got, direct.Output)
		}
	}
	// A non-OK backend status crosses both hops intact.
	_, _, err = c.Call(context.Background(), 0x7777, in)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != wire.StatusNotFound {
		t.Fatalf("unknown function through two hops: got %v, want NOT_FOUND", err)
	}
	// A chain frame crosses the router as one request: its output equals
	// the direct on-card chain, and the chain's affinity keeps every
	// repeat on one backend.
	stages := []uint16{algos.SHA256().ID(), algos.AES128().ID()}
	direct, _, err := f.nodes[0].cl.CallChain(stages, in)
	if err != nil {
		t.Fatal(err)
	}
	forwards := func(addr string) uint64 {
		return reg.Counter("agile_router_forwards_total",
			metrics.L("backend", addr), metrics.L("status", "ok")).Value()
	}
	before := []uint64{forwards(f.addrs[0]), forwards(f.addrs[1])}
	for i := 0; i < 5; i++ {
		got, _, err := c.CallChain(context.Background(), stages, in)
		if err != nil {
			t.Fatalf("chain through the router: %v", err)
		}
		if !bytes.Equal(got, direct.Output) {
			t.Fatalf("chain wire output %x != direct %x", got, direct.Output)
		}
	}
	if d0, d1 := forwards(f.addrs[0])-before[0], forwards(f.addrs[1])-before[1]; d0*d1 != 0 || d0+d1 != 5 {
		t.Fatalf("5 repeats of one chain split %d/%d over two backends", d0, d1)
	}
	if n := reg.Histogram("agile_router_hop_overhead_seconds").Count(); n == 0 {
		t.Fatal("hop-overhead histogram is empty after wire calls")
	}
}

// TestRouterTracerRootsRouteSpan: a router given a tracer roots a route
// span for an untraced wire request, with the forward to the backend
// recorded under it.
func TestRouterTracerRootsRouteSpan(t *testing.T) {
	f := newFleet(t, 1, 1)
	tracer := trace.NewTracer(trace.TracerOptions{Sample: 1, Seed: 1})
	defer tracer.Close()
	r, _ := newTestRouter(t, f, router.Options{Tracer: tracer})
	c, err := client.Dial(serveWire(t, r), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Call(context.Background(), algos.IDSHA256, []byte("route me")); err != nil {
		t.Fatal(err)
	}
	// The route span ends just after the reply is written.
	deadline := time.Now().Add(10 * time.Second) //lint:wallclock test polls for the router's span to end in real time
	for tracer.Completed() == 0 {
		if time.Now().After(deadline) { //lint:wallclock test polls for the router's span to end in real time
			t.Fatal("the routed request's trace never completed")
		}
		time.Sleep(time.Millisecond) //lint:wallclock test polls for the router's span to end in real time
	}
	traces := tracer.Captured()
	if len(traces) != 1 {
		t.Fatalf("captured %d traces, want 1", len(traces))
	}
	spans := traces[0].Spans
	if root := spans[0]; root.Name != "route" || root.Layer != "router" || root.Fn != algos.IDSHA256 {
		t.Fatalf("root span %+v, want the router's route span for sha256", root)
	}
	if len(spans) < 2 {
		t.Fatalf("the route span has no children: %+v", spans)
	}
}

// TestRouterDeadlineShortCircuit: an already-expired context never
// reaches a backend.
func TestRouterDeadlineShortCircuit(t *testing.T) {
	f := newFleet(t, 1, 1)
	r, reg := newTestRouter(t, f, router.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := r.Call(ctx, algos.CRC32().ID(), []byte{1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := reg.Counter("agile_router_forwards_total",
		metrics.L("backend", f.addrs[0]), metrics.L("status", "ok")).Value(); n != 0 {
		t.Fatalf("cancelled call reached a backend %d times", n)
	}
}

// lingerConn holds every Write open for a while after its bytes are on
// the wire, stretching the moment between a response reaching the client
// and the writer moving on.
type lingerConn struct{ net.Conn }

func (c lingerConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	time.Sleep(20 * time.Millisecond) //lint:wallclock test widens a write-then-retire window in real time
	return n, err
}

type lingerListener struct{ net.Listener }

func (l lingerListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return lingerConn{c}, nil
}

// TestRouterSequentialIDReuseIsLegal is the router twin of the server's
// TestSequentialIDReuseIsLegal: a client may reuse an id as soon as it
// has read the first use's response, so the router retires the id
// before it writes the response. Writing first would let the reused id
// land while the first is still registered — a spurious duplicate-id
// protocol error that closes the connection.
func TestRouterSequentialIDReuseIsLegal(t *testing.T) {
	f := newFleet(t, 1, 1)
	r, _ := newTestRouter(t, f, router.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serr := make(chan error, 1)
	go func() { serr <- r.Serve(lingerListener{ln}) }()
	t.Cleanup(func() {
		r.Close()
		<-serr
	})
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := []byte{4, 3, 2, 1}
	want, _ := algos.CRC32().Exec(in)
	for round := 0; round < 3; round++ {
		if err := wire.WriteRequest(conn, &wire.Request{ID: 42, Fn: algos.CRC32().ID(), Payload: in}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //lint:wallclock socket deadline
		resp, err := wire.ReadResponse(conn)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != 42 || resp.Status != wire.StatusOK || !bytes.Equal(resp.Payload, want) {
			t.Fatalf("round %d: %+v", round, resp)
		}
	}
}

// TestForwardDeadlineDropsBuffer: a backend answers every late-marked
// request around the router's deadline for it, so the backend client
// may be copying that answer into the buffer the router lent the
// forward while the router gives up on it. The router must never lend
// that buffer again: every call that succeeds, interleaved with the late
// ones, returns its own answer and never the late poison bytes.
func TestForwardDeadlineDropsBuffer(t *testing.T) {
	const late = 0xAA
	flip := func(in []byte) []byte {
		out := make([]byte, len(in))
		for i, b := range in {
			out[i] = ^b
		}
		return out
	}
	stub := startStub(t, func(req *wire.Request) (time.Duration, wire.Response) {
		if len(req.Payload) > 0 && req.Payload[0] == late {
			// Spread the answers over the last millisecond before the
			// deadline and just past it: the window that matters is a
			// response read just as the router gives up, and where it
			// falls depends on the loopback and timer latencies.
			skew := time.Duration(rand.IntN(1200)-1000) * time.Microsecond
			return req.Deadline + skew, wire.Response{Status: wire.StatusOK,
				Payload: bytes.Repeat([]byte{0xEE}, len(req.Payload))}
		}
		return 0, wire.Response{Status: wire.StatusOK, Payload: flip(req.Payload)}
	})
	// The backend client keeps its default pool of connections: a late
	// answer and the next use of its buffer are then read by different
	// goroutines, which is what makes reusing the buffer a race.
	r, err := router.New([]string{stub}, router.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr := serveWire(t, r)
	// Late calls get a client of their own: a write that overruns their
	// short deadline closes its connection, which must not fail the
	// calls under test.
	c, err := client.Dial(addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lateC, err := client.Dial(addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lateC.Close()
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
				lateC.Call(ctx, 1, bytes.Repeat([]byte{late}, 512)) // fails or returns poison: either is legal
				cancel()
				in := make([]byte, 64+(g*rounds+i)%449)
				for j := range in {
					in[j] = byte(g + i + j)
				}
				in[0] = 0
				got, _, err := c.Call(context.Background(), 1, in)
				if err != nil {
					t.Errorf("worker %d round %d: %v", g, i, err)
					return
				}
				if !bytes.Equal(got, flip(in)) {
					t.Errorf("worker %d round %d: a %d B call got another request's bytes", g, i, len(in))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
