package server

import (
	"bytes"
	"context"
	"net"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/client"
	"agilefpga/internal/cluster"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/testutil"
)

// TestRoundTripAllocs pins what one resident call costs the heap across
// the whole loopback stack — client, wire, server, cluster and card —
// at what a call must allocate: the copy of the response payload the
// caller keeps. The request runs on a parked serving goroutine rather
// than a new one; the client waiter, the server's Call, the cluster's
// Pending with its output buffer, the card's result and every frame
// buffer are pooled or reused; the core
// computes into the card's RAM output window and the host reads it out
// into the Pending's buffer. Under -race sync.Pool drops Puts, so the
// count is exact only without it.
// No metrics registry or tracer is attached: recording is not free,
// and the serving path is what this pins.
func TestRoundTripAllocs(t *testing.T) {
	const want = 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	call := residentCall(t, ln)
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops Puts under -race: the pooled objects are reallocated there by design")
	}
	// A cold card loads sha256 once above; every call measured is a hit.
	if got := testing.AllocsPerRun(500, call); got != want {
		t.Errorf("a resident 256 B sha256 round trip allocates %.0f times, want %d (lower it if this fell)", got, want)
	}
}

// TestRoundTripIO pins the system calls the server makes for the same
// closed-loop resident call: the request arrives in one Read and the
// response leaves in one Write. A change that splits the response or
// reads a request in pieces adds a call per request and fails here.
func TestRoundTripIO(t *testing.T) {
	const ops, wantReads, wantWrites = 500, 1, 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cln := &testutil.CountingListener{Listener: ln}
	call := residentCall(t, cln)
	reads, writes := cln.Reads(), cln.Writes()
	for i := 0; i < ops; i++ {
		call()
	}
	reads, writes = cln.Reads()-reads, cln.Writes()-writes
	if reads != wantReads*ops || writes != wantWrites*ops {
		t.Errorf("%d resident calls: server made %d reads and %d writes, want %d and %d per call",
			ops, reads, writes, wantReads, wantWrites)
	}
}

// residentCall serves a two-card cluster on ln until the test ends and
// returns one closed-loop 256 B sha256 call through a one-connection
// client, checked against the reference. It has made 100 calls already,
// so the function is resident and the pools are full.
func residentCall(t *testing.T, ln net.Listener) func() {
	t.Helper()
	cl, err := cluster.New(2, cluster.ModeAffinity, core.Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cl, Options{})
	serr := make(chan error, 1)
	go func() { serr <- srv.Serve(ln) }()
	c, err := client.Dial(ln.Addr().String(), client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		<-serr
		cl.Close()
	})
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
			t.Fatalf("sha256 over the wire = %x, want %x", out, ref)
		}
	}
	for i := 0; i < 100; i++ { // load the function, fill the pools
		call()
	}
	return call
}
