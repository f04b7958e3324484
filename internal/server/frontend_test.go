package server_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
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
	"agilefpga/internal/wire"
)

// frontEnd is one daemon's wire front end under test. The server and
// the router run the same connection loop with different handlers, so
// the front-end tests below run against both. Either way an MD5 call
// parks in a backend server's admission hook until gate closes.
type frontEnd struct {
	addr    string
	gate    chan struct{}
	backend *metrics.Registry // the serving server's series
	edge    *metrics.Registry // the front end's agile_server_* series; nil for a router, which exports none
}

// parked reports whether the parked MD5 call holds its slot.
func (fe *frontEnd) parked() bool {
	return fe.backend.Gauge("agile_server_inflight").Value() == 1
}

// forEachFrontEnd runs test against a server and against a router in
// front of one, each front end admitting at most maxInflight requests.
func forEachFrontEnd(t *testing.T, maxInflight int, test func(t *testing.T, fe *frontEnd)) {
	for _, kind := range []string{"server", "router"} {
		t.Run(kind, func(t *testing.T) {
			fe := &frontEnd{gate: make(chan struct{}), backend: metrics.NewRegistry()}
			opts := server.Options{Metrics: fe.backend}
			if kind == "server" {
				opts.MaxInflight, fe.edge = maxInflight, fe.backend
			}
			fe.addr = startServer(t, opts, fe.gate)
			if kind == "router" {
				fe.addr = startRouter(t, fe.addr, maxInflight)
			}
			test(t, fe)
		})
	}
}

// startServer boots a one-card server whose MD5 calls wait for gate.
func startServer(t *testing.T, opts server.Options, gate <-chan struct{}) string {
	t.Helper()
	cl, err := cluster.New(1, cluster.ModeAffinity, core.Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cl, opts)
	server.SetAdmitHook(srv, func(req *wire.Request) {
		if req.Fn == algos.MD5().ID() {
			<-gate
		}
	})
	return serve(t, srv.Serve, srv.Close, cl.Close)
}

// startRouter puts a router admitting maxInflight requests in front of
// backend.
func startRouter(t *testing.T, backend string, maxInflight int) string {
	t.Helper()
	r, err := router.New([]string{backend}, router.Options{MaxInflight: maxInflight, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, r.Serve, r.Close, func() {})
}

// serve runs a front end on a loopback listener until the test ends.
func serve(t *testing.T, run func(net.Listener) error, stop func() error, after func()) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- run(ln) }()
	t.Cleanup(func() {
		stop()
		<-done
		after()
	})
	return ln.Addr().String()
}

// TestSaturationRefusesThenRetrySucceeds injects deterministic
// saturation: the parked call holds the only in-flight slot, a
// no-retry client observes RESOURCE_EXHAUSTED, and a retrying client's
// backoff bridges the gate's release.
func TestSaturationRefusesThenRetrySucceeds(t *testing.T) {
	forEachFrontEnd(t, 1, func(t *testing.T, fe *frontEnd) {
		in := []byte{1, 2, 3, 4}
		parked, err := client.Dial(fe.addr, client.Options{MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer parked.Close()
		parkedDone := make(chan error, 1)
		go func() {
			_, _, err := parked.Call(context.Background(), algos.MD5().ID(), in)
			parkedDone <- err
		}()
		server.WaitFor(t, fe.parked)

		// A client without retries sees the explicit refusal, not a hang.
		noRetry, err := client.Dial(fe.addr, client.Options{MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer noRetry.Close()
		_, _, err = noRetry.Call(context.Background(), algos.CRC32().ID(), in)
		var se *client.StatusError
		if !errors.As(err, &se) || se.Status != wire.StatusResourceExhausted {
			t.Fatalf("saturated call err = %v, want RESOURCE_EXHAUSTED", err)
		}

		// A retrying client keeps backing off; release the gate after its
		// first observed retry and the call must succeed.
		retries := make(chan int, 16)
		retrier, err := client.Dial(fe.addr, client.Options{
			MaxRetries:  8,
			BaseBackoff: 2 * time.Millisecond,
			OnRetry: func(attempt int, err error) {
				select {
				case retries <- attempt:
				default:
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer retrier.Close()
		callDone := make(chan error, 1)
		var out []byte
		go func() {
			var err error
			out, _, err = retrier.Call(context.Background(), algos.CRC32().ID(), in)
			callDone <- err
		}()
		select {
		case <-retries:
		case <-time.After(5 * time.Second):
			t.Fatal("no retry observed while saturated")
		}
		close(fe.gate)
		if err := <-callDone; err != nil {
			t.Fatalf("retrying call failed after release: %v", err)
		}
		want, _ := algos.CRC32().Exec(in)
		if !bytes.Equal(out, want) {
			t.Fatal("retried call returned wrong bytes")
		}
		if err := <-parkedDone; err != nil {
			t.Fatalf("parked call failed: %v", err)
		}
		// A server counts a refusal after its response is flushed, so the
		// second one may still be a moment behind the client that read it.
		if fe.edge != nil {
			server.WaitFor(t, func() bool {
				return fe.edge.Counter("agile_server_requests_total",
					metrics.L("status", "resource_exhausted")).Value() >= 2
			})
		}
	})
}

// TestDuplicateInflightIDRejected: reusing a request id while the
// first request is still in flight on the same connection is a
// protocol error — answered explicitly with INVALID_ARGUMENT (never a
// hang), and fatal to the connection.
func TestDuplicateInflightIDRejected(t *testing.T) {
	forEachFrontEnd(t, 8, func(t *testing.T, fe *frontEnd) {
		defer close(fe.gate)
		conn, err := net.Dial("tcp", fe.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		in := []byte{1, 2, 3, 4}
		// Request 9 parks; its duplicate arrives while it is provably in
		// flight.
		if err := wire.WriteRequest(conn, &wire.Request{ID: 9, Fn: algos.MD5().ID(), Payload: in}); err != nil {
			t.Fatal(err)
		}
		server.WaitFor(t, fe.parked)
		if err := wire.WriteRequest(conn, &wire.Request{ID: 9, Fn: algos.CRC32().ID(), Payload: in}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := wire.ReadResponse(conn)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != 9 || resp.Status != wire.StatusInvalidArgument {
			t.Fatalf("duplicate answered %+v, want id 9 INVALID_ARGUMENT", resp)
		}
		// The stream is poisoned: the front end closes it.
		if _, err := wire.ReadResponse(conn); err == nil {
			t.Fatal("connection stayed open after a protocol error")
		}
		if fe.edge != nil {
			server.WaitFor(t, func() bool {
				return fe.edge.Counter("agile_server_protocol_errors_total").Value() == 1
			})
		}
	})
}

// TestPipelinedRequestsDoNotWait: requests pipelined on one connection
// are served side by side. A CRC32 request sent behind an MD5 request
// held at the admission gate is answered while the MD5 is still held:
// serving a request never stops its connection's reads.
func TestPipelinedRequestsDoNotWait(t *testing.T) {
	forEachFrontEnd(t, 8, func(t *testing.T, fe *frontEnd) {
		conn, err := net.Dial("tcp", fe.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		in := []byte{1, 2, 3, 4}
		if err := wire.WriteRequest(conn, &wire.Request{ID: 1, Fn: algos.MD5().ID(), Payload: in}); err != nil {
			t.Fatal(err)
		}
		server.WaitFor(t, fe.parked)
		if err := wire.WriteRequest(conn, &wire.Request{ID: 2, Fn: algos.CRC32().ID(), Payload: in}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := wire.ReadResponse(conn)
		if err != nil {
			t.Fatalf("no answer to the CRC32 request behind a held MD5: %v", err)
		}
		want, _ := algos.CRC32().Exec(in)
		if resp.ID != 2 || resp.Status != wire.StatusOK || !bytes.Equal(resp.Payload, want) {
			t.Fatalf("first answer %+v, want id 2 OK %x", resp, want)
		}
		// The gate is still shut, so the MD5 request is still held.
		close(fe.gate)
		resp, err = wire.ReadResponse(conn)
		if err != nil {
			t.Fatal(err)
		}
		want, _ = algos.MD5().Exec(in)
		if resp.ID != 1 || resp.Status != wire.StatusOK || !bytes.Equal(resp.Payload, want) {
			t.Fatalf("second answer %+v, want id 1 OK %x", resp, want)
		}
	})
}

// TestServingGoroutinesBounded drives bursts of 3×MaxInflight
// concurrent gated calls through each front end, so requests keep
// arriving while serving goroutines finish and park. Busy and parked
// serving goroutines together never outnumber a front end's admission
// slots, and once the front ends close every one of them exits.
func TestServingGoroutinesBounded(t *testing.T) {
	const maxInflight, bursts = 4, 5
	sc := server.CountServingGoroutines(t)
	forEachFrontEnd(t, maxInflight, func(t *testing.T, fe *frontEnd) {
		defer close(fe.gate)
		c, err := client.Dial(fe.addr, client.Options{
			MaxRetries: 1000, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		in := []byte{1, 2, 3, 4}
		want, _ := algos.MD5().Exec(in)
		for b := 0; b < bursts; b++ {
			errs := make(chan error, 3*maxInflight)
			for i := 0; i < 3*maxInflight; i++ {
				go func() {
					out, _, err := c.Call(context.Background(), algos.MD5().ID(), in)
					if err == nil && !bytes.Equal(out, want) {
						err = errors.New("md5 answered wrong bytes")
					}
					errs <- err
				}()
			}
			// Open the gate one call at a time: each freed slot is taken
			// by a retry while the goroutine that held it parks.
			for i := 0; i < 3*maxInflight; i++ {
				fe.gate <- struct{}{}
			}
			for i := 0; i < 3*maxInflight; i++ {
				if err := <-errs; err != nil {
					t.Fatalf("burst %d: %v", b, err)
				}
			}
			if err := sc.Check(); err != nil {
				t.Fatalf("burst %d: %v", b, err)
			}
		}
	})
	server.WaitFor(t, func() bool { return sc.Live() == 0 })
}

// TestCloseDoesNotWaitForHandlers: Close does not wait for a busy
// handler. A router forwards a call to a backend that reads it and
// never answers; only Close's own teardown of the backend clients
// ends that forward, so a Close that waited for handlers first would
// never return. Close returns, then the in-flight call settles.
func TestCloseDoesNotWaitForHandlers(t *testing.T) {
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	go func() {
		for {
			conn, err := mute.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, conn)
				conn.Close()
			}()
		}
	}()
	r, err := router.New([]string{mute.Addr().String()}, router.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- r.Serve(ln) }()
	c, err := client.Dial(ln.Addr().String(), client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	settled := make(chan error, 1)
	go func() {
		_, _, err := c.Call(context.Background(), algos.CRC32().ID(), []byte{1, 2, 3, 4})
		settled <- err
	}()
	server.WaitFor(t, func() bool { return r.Backends()[0].Inflight == 1 })

	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close waited for a handler whose backend never answers")
	}
	if err := <-served; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	select {
	case err := <-settled:
		if err == nil {
			t.Fatal("a call to a backend that never answers succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the in-flight call never settled after Close")
	}
	server.WaitFor(t, func() bool { return r.Backends()[0].Inflight == 0 })
}
