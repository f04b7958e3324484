package router_test

import (
	"bytes"
	"context"
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
	f := newFleet(t, 2, 1)
	r, err := router.New(f.addrs, router.Options{Seed: 1, Backend: client.Options{PoolSize: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(serveWire(t, r), client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops Puts under -race: the pooled objects are reallocated there by design")
	}
	if got := testing.AllocsPerRun(500, call); got != want {
		t.Errorf("a resident 256 B sha256 call through the router allocates %.0f times, want %d (lower it if this fell)", got, want)
	}
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
