package server

import (
	"bytes"
	"context"
	"errors"
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
	"agilefpga/internal/wire"
)

// harness boots a cluster and a server on a real TCP listener.
type harness struct {
	cl   *cluster.Cluster
	srv  *Server
	addr string
	reg  *metrics.Registry
	serr chan error
}

// newHarness boots the stack; hook, if non-nil, becomes the server's
// admission hook (installed before Serve starts, so its reads are
// ordered by the goroutine launch).
func newHarness(t *testing.T, cards int, opts Options, hook func(*wire.Request)) *harness {
	t.Helper()
	return newHarnessMode(t, cluster.ModeAffinity, cards, opts, hook)
}

// newHarnessMode is newHarness with the cluster's dispatch mode chosen.
func newHarnessMode(t *testing.T, mode string, cards int, opts Options, hook func(*wire.Request)) *harness {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg := core.Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}, Metrics: reg}
	cl, err := cluster.New(cards, mode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Metrics == nil {
		opts.Metrics = reg
	}
	srv := New(cl, opts)
	srv.hookAdmitted = hook
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{cl: cl, srv: srv, addr: ln.Addr().String(), reg: reg, serr: make(chan error, 1)}
	go func() { h.serr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-h.serr
		cl.Close()
	})
	return h
}

// TestEndToEndMatchesDirectCall proves the acceptance criterion: bytes
// through the network path equal bytes from a direct cluster call.
func TestEndToEndMatchesDirectCall(t *testing.T) {
	h := newHarness(t, 2, Options{}, nil)
	c, err := client.Dial(h.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, f := range []*algos.Function{algos.CRC32(), algos.MD5()} {
		in := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		direct, _, err := h.cl.Call(f.ID(), in)
		if err != nil {
			t.Fatal(err)
		}
		got, card, err := c.Call(context.Background(), f.ID(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, direct.Output) {
			t.Fatalf("%s: network output %x != direct output %x", f.Name(), got, direct.Output)
		}
		if card < 0 || card >= 2 {
			t.Fatalf("served by card %d of a 2-card cluster", card)
		}
	}
	// The server counts a request after its response is flushed.
	waitFor(t, func() bool {
		return h.reg.Counter("agile_server_requests_total", metrics.L("status", "ok")).Value() == 2
	})
}

// TestModExp128TinyModulusReturnsOK: one 48-byte record — base 2¹²⁸−1,
// modulus 3 — used to spin inside Exec under the card lock and wedge the
// worker for good. It must come back OK, with the right residue.
func TestModExp128TinyModulusReturnsOK(t *testing.T) {
	h := newHarness(t, 1, Options{}, nil)
	c, err := client.Dial(h.addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := make([]byte, 48)
	for i := 0; i < 16; i++ {
		rec[i] = 0xFF // base 2¹²⁸−1, a multiple of 3
	}
	rec[16] = 5 // exponent
	rec[32] = 3 // modulus
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, _, err := c.Call(ctx, algos.ModExp128().ID(), rec)
	if err != nil {
		t.Fatalf("modexp128 over the wire: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("(2¹²⁸−1)⁵ mod 3 = %x, want 0", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	h := newHarness(t, 2, Options{MaxInflight: 128}, nil)
	const clients, calls = 8, 25
	fn := algos.CRC32()
	in := []byte{9, 9, 9, 9}
	want, _ := fn.Exec(in)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(h.addr, client.Options{PoolSize: 2})
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for j := 0; j < calls; j++ {
				out, _, err := c.Call(context.Background(), fn.ID(), in)
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(out, want) {
					errc <- errors.New("wrong output")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestGracefulDrain proves Shutdown completes in-flight requests and
// refuses new ones.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	h := newHarness(t, 1, Options{MaxInflight: 4}, func(*wire.Request) { <-gate })
	in := []byte{1, 2, 3, 4}

	c, err := client.Dial(h.addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A raw connection established before the drain starts, for probing
	// request handling on live connections mid-drain.
	raw, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	inflightDone := make(chan error, 1)
	var out []byte
	go func() {
		var err error
		out, _, err = c.Call(context.Background(), algos.CRC32().ID(), in)
		inflightDone <- err
	}()
	waitFor(t, func() bool {
		return h.reg.Gauge("agile_server_inflight").Value() == 1
	})

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- h.srv.Shutdown(ctx)
	}()

	// While draining: new connections are refused and new requests on
	// live connections answer UNAVAILABLE.
	waitFor(t, func() bool {
		_, err := net.DialTimeout("tcp", h.addr, 100*time.Millisecond)
		return err != nil
	})
	c2, err := client.Dial(h.addr, client.Options{MaxRetries: -1})
	if err == nil {
		c2.Close()
		t.Fatal("dial succeeded while draining")
	}
	if err := wire.WriteRequest(raw, &wire.Request{ID: 5, Fn: algos.CRC32().ID(), Payload: in}); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 5 || resp.Status != wire.StatusUnavailable {
		t.Fatalf("drain-time response = %+v, want UNAVAILABLE", resp)
	}

	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned with a request still in flight")
	default:
	}
	close(gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-inflightDone; err != nil {
		t.Fatalf("in-flight call during drain: %v", err)
	}
	want, _ := algos.CRC32().Exec(in)
	if !bytes.Equal(out, want) {
		t.Fatal("drained call returned wrong bytes")
	}
	if err := <-h.serr; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	h.serr <- ErrServerClosed // keep Cleanup's receive from blocking
}

func TestDeadlineExceeded(t *testing.T) {
	if testing.Short() {
		t.Skip("depends on wall-clock stalls and budgets; skipped in -short mode")
	}
	// The hook stalls request 77 past its budget after admission, so the
	// server-side deadline path triggers deterministically.
	h := newHarness(t, 1, Options{}, func(req *wire.Request) {
		if req.ID == 77 {
			time.Sleep(50 * time.Millisecond)
		}
	})
	c, err := client.Dial(h.addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // guarantee expiry
	_, _, err = c.Call(ctx, algos.CRC32().ID(), []byte{1, 2, 3, 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	// Server-side enforcement: a raw request whose budget cannot be met
	// answers DEADLINE_EXCEEDED rather than hanging.
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := &wire.Request{ID: 77, Fn: algos.CRC32().ID(), Deadline: 10 * time.Millisecond, Payload: []byte{1, 2, 3, 4}}
	if err := wire.WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 77 || resp.Status != wire.StatusDeadlineExceeded {
		t.Fatalf("raw deadline response = %+v, want DEADLINE_EXCEEDED", resp)
	}
}

func TestUnknownFunctionAndEmptyPayload(t *testing.T) {
	h := newHarness(t, 1, Options{}, nil)
	c, err := client.Dial(h.addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.Call(context.Background(), 0xFFFF, []byte{1})
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != wire.StatusNotFound {
		t.Fatalf("unknown fn err = %v, want NOT_FOUND", err)
	}
	_, _, err = c.Call(context.Background(), algos.CRC32().ID(), nil)
	if !errors.As(err, &se) || se.Status != wire.StatusInvalidArgument {
		t.Fatalf("empty payload err = %v, want INVALID_ARGUMENT", err)
	}
	// Legal on the wire (≤ wire.MaxPayload) but over the card's 32 KiB
	// staging window: the client's mistake, not a server fault.
	_, _, err = c.Call(context.Background(), algos.CRC32().ID(), make([]byte, 40*1024))
	if !errors.As(err, &se) || se.Status != wire.StatusInvalidArgument {
		t.Fatalf("over-window payload err = %v, want INVALID_ARGUMENT", err)
	}
}

// TestChainSplitIsInvalidArgument: in partition mode a chain whose
// stages live on different cards can never run as one on-card dataflow;
// the chain request must come back INVALID_ARGUMENT, and a chain
// whose stages share a home must be served.
func TestChainSplitIsInvalidArgument(t *testing.T) {
	h := newHarnessMode(t, cluster.ModePartition, 2, Options{}, nil)
	c, err := client.Dial(h.addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A partition-mode call runs on its function's home card, so one call
	// per function finds every home.
	in := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var onCard [2][]*algos.Function
	for _, f := range algos.Bank() {
		_, home, err := c.Call(context.Background(), f.ID(), in)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		onCard[home] = append(onCard[home], f)
	}
	_, _, err = c.CallChain(context.Background(), []uint16{onCard[0][0].ID(), onCard[1][0].ID()}, in)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != wire.StatusInvalidArgument {
		t.Fatalf("split chain err = %v, want INVALID_ARGUMENT", err)
	}
	a, b := onCard[0][0], onCard[0][1]
	mid, _ := a.Exec(in)
	want, _ := b.Exec(mid)
	got, card, err := c.CallChain(context.Background(), []uint16{a.ID(), b.ID()}, in)
	if err != nil || card != 0 || !bytes.Equal(got, want) {
		t.Fatalf("co-homed chain %s->%s: card %d, err %v, output match %v",
			a.Name(), b.Name(), card, err, bytes.Equal(got, want))
	}
}

// TestBadFrameClosesConnection: a stream that breaks framing is
// dropped, and the decode-error counter records it.
func TestBadFrameClosesConnection(t *testing.T) {
	h := newHarness(t, 1, Options{}, nil)
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(bytes.Repeat([]byte{0xFF}, 64)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a poisoned connection open")
	}
	waitFor(t, func() bool {
		return h.reg.Counter("agile_server_decode_errors_total").Value() >= 1
	})
}

// TestCleanCloseIsNotADecodeError: a client that closes its connection
// at a frame boundary broke nothing, so the decode-error counter stays
// at zero — it counts streams that broke framing, nothing else.
func TestCleanCloseIsNotADecodeError(t *testing.T) {
	h := newHarness(t, 1, Options{}, nil)
	in := []byte{1, 2, 3, 4}
	for i := 0; i < 5; i++ {
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteRequest(conn, &wire.Request{ID: 1, Fn: algos.CRC32().ID(), Payload: in}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if resp, err := wire.ReadResponse(conn); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("call %d: %+v, %v", i, resp, err)
		}
		conn.Close()
	}
	// A connection leaves the gauge after its loop has seen the close.
	waitFor(t, func() bool {
		return h.reg.Gauge("agile_server_connections").Value() == 0
	})
	if n := h.reg.Counter("agile_server_decode_errors_total").Value(); n != 0 {
		t.Fatalf("%d decode errors after 5 clean closes, want 0", n)
	}
}

// TestObserveWithoutSinksAllocatesNothing: with no metrics registry
// attached, recording a finished request builds nothing.
func TestObserveWithoutSinksAllocatesNothing(t *testing.T) {
	s := New(nil, Options{})
	allocs := testing.AllocsPerRun(100, func() {
		s.observe(wire.StatusOK, time.Millisecond, 0)
	})
	if allocs != 0 {
		t.Errorf("observe without sinks allocates %.0f times, want 0", allocs)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never reached")
}
