package router_test

import (
	"bytes"
	"context"
	"net"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/client"
	"agilefpga/internal/router"
	"agilefpga/internal/testutil"
)

// TestRoutedRoundTripAllocs pins what one resident call routed through
// the wire router costs the heap — client, router, two backends of one
// card each — at what a routed call must allocate: the copy of the
// response payload the caller keeps. The router and the backend server
// each serve the request on a parked serving goroutine, the ring lookup
// and the candidate list live on the stack, and the backend's answer is
// copied into a buffer from the router's pool, so the hop adds nothing
// to the single-hop count of server.TestRoundTripAllocs.
// Under -race sync.Pool drops Puts, so the count is exact only without
// it. No metrics registry or tracer is attached.
func TestRoutedRoundTripAllocs(t *testing.T) {
	const want = 1
	call := routedResidentCall(t, listen(t), []net.Listener{listen(t), listen(t)})
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops Puts under -race: the pooled objects are reallocated there by design")
	}
	if got := testing.AllocsPerRun(500, call); got != want {
		t.Errorf("a resident 256 B sha256 call through the router allocates %.0f times, want %d (lower it if this fell)", got, want)
	}
}

// TestRoutedRoundTripIO pins the system calls of the same routed call
// on both sides of the hop: the router's front end reads the request
// in one Read and answers in one Write, and so does the backend that
// serves the forward. A hop that splits a frame adds a call per request
// and fails here.
func TestRoutedRoundTripIO(t *testing.T) {
	const ops = 500
	front := &testutil.CountingListener{Listener: listen(t)}
	backends := []*testutil.CountingListener{{Listener: listen(t)}, {Listener: listen(t)}}
	call := routedResidentCall(t, front, []net.Listener{backends[0], backends[1]})
	// counts sums the reads and writes of the front end and of the
	// backends.
	counts := func() (fr, fw, br, bw uint64) {
		fr, fw = front.Reads(), front.Writes()
		for _, b := range backends {
			br, bw = br+b.Reads(), bw+b.Writes()
		}
		return
	}
	fr0, fw0, br0, bw0 := counts()
	for i := 0; i < ops; i++ {
		call()
	}
	fr, fw, br, bw := counts()
	for _, side := range []struct {
		name          string
		reads, writes uint64
	}{
		{"front end", fr - fr0, fw - fw0},
		{"backend", br - br0, bw - bw0},
	} {
		if side.reads != ops || side.writes != ops {
			t.Errorf("%d routed calls: the %s made %d reads and %d writes, want 1 and 1 per call",
				ops, side.name, side.reads, side.writes)
		}
	}
}

// listen opens a loopback listener.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// routedResidentCall serves a router on front over one-card backends on
// the backend listeners, until the test ends, and returns one
// closed-loop 256 B sha256 call through a one-connection client, checked
// against the reference. It has made 100 calls already, so the function
// is resident and the pools are full.
func routedResidentCall(t *testing.T, front net.Listener, backends []net.Listener) func() {
	t.Helper()
	f := &fleet{}
	for _, ln := range backends {
		nd := serveNode(t, ln, 1)
		f.nodes, f.addrs = append(f.nodes, nd), append(f.addrs, nd.addr)
	}
	t.Cleanup(func() {
		for _, nd := range f.nodes {
			nd.stop()
		}
	})
	r, err := router.New(f.addrs, router.Options{Seed: 1, Backend: client.Options{PoolSize: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(serveWireOn(t, r, front), client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	in := make([]byte, 256)
	for i := range in {
		in[i] = byte(i * 7)
	}
	ref, err := algos.SHA256().Exec(in)
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		out, _, err := c.Call(context.Background(), algos.IDSHA256, in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, ref) {
			t.Fatalf("sha256 through the router = %x, want %x", out, ref)
		}
	}
	for i := 0; i < 100; i++ { // load the function, fill the pools
		call()
	}
	return call
}

// TestRoutingStepsAllocateNothing pins the router's own per-request
// steps at zero allocations: the candidate list, the ring lookup, and
// the status of a successful route.
func TestRoutingStepsAllocateNothing(t *testing.T) {
	f := newFleet(t, 3, 1)
	r, _ := newTestRouter(t, f, router.Options{Replication: 3})
	ring := router.NewRing(0, 1) // newTestRouter's seed
	for _, addr := range f.addrs {
		ring.Add(addr)
	}
	fn := algos.IDSHA256
	for _, step := range []struct {
		name string
		run  func()
	}{
		{"candidates", func() {
			if n := r.Candidates(fn); n != 3 {
				t.Fatalf("candidates lists %d backends, want 3", n)
			}
		}},
		{"Ring.Lookup", func() {
			if ring.Lookup(fn) == "" {
				t.Fatal("Lookup on a full ring is empty")
			}
		}},
		{"routeStatus(nil)", func() {
			if st := router.RouteStatus(nil); st != "ok" {
				t.Fatalf("routeStatus(nil) = %q", st)
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, step.run); got != 0 {
			t.Errorf("%s allocates %.0f times, want 0", step.name, got)
		}
	}
}
