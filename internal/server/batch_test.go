package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/client"
	"agilefpga/internal/metrics"
	"agilefpga/internal/wire"
)

// TestPipelinedCallsMatchDirect is the multiplexing acceptance bar: N
// concurrent calls pipelined over ONE connection return byte-identical
// results to N serial direct cluster calls.
func TestPipelinedCallsMatchDirect(t *testing.T) {
	h := newHarness(t, 2, Options{MaxInflight: 64}, nil)
	fn := algos.CRC32()
	const n = 16
	inputs := make([][]byte, n)
	want := make([][]byte, n)
	for i := range inputs {
		inputs[i] = []byte{byte(i), byte(i * 7), 3, 4, byte(i)}
		res, _, err := h.cl.Call(fn.ID(), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Output
	}
	c, err := client.Dial(h.addr, client.Options{PoolSize: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, err := c.Call(context.Background(), fn.ID(), inputs[i])
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(out, want[i]) {
				errs[i] = fmt.Errorf("network output %x != direct %x", out, want[i])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	if got := h.reg.Gauge("agile_server_connections").Value(); got != 1 {
		t.Errorf("server connections = %d, want 1 — the pipeline must share one conn", got)
	}
}

// TestSlowRequestDoesNotBlockFast: with both requests pipelined on one
// connection, a request parked server-side must not delay one issued
// after it. The admission hook makes "slow" deterministic.
func TestSlowRequestDoesNotBlockFast(t *testing.T) {
	gate := make(chan struct{})
	h := newHarness(t, 1, Options{MaxInflight: 8}, func(req *wire.Request) {
		if req.Fn == algos.MD5().ID() {
			<-gate
		}
	})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	c, err := client.Dial(h.addr, client.Options{PoolSize: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := []byte{1, 2, 3, 4}
	slowDone := make(chan error, 1)
	go func() {
		_, _, err := c.Call(context.Background(), algos.MD5().ID(), in)
		slowDone <- err
	}()
	waitFor(t, func() bool {
		return h.reg.Gauge("agile_server_inflight").Value() == 1
	})
	// The fast call rides the same connection and completes while the
	// slow one is parked.
	out, _, err := c.Call(context.Background(), algos.CRC32().ID(), in)
	if err != nil {
		t.Fatalf("fast call behind a parked request: %v", err)
	}
	want, _ := algos.CRC32().Exec(in)
	if !bytes.Equal(out, want) {
		t.Fatal("fast call returned wrong bytes")
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call settled before its gate: %v", err)
	default:
	}
	close(gate)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestCrossClientBatching: four requests from four DIFFERENT
// connections land in one batching window (the size trigger flushes it
// deterministically: dwell is set far beyond the test), every caller
// gets its own correct bytes, and the window metrics record one
// four-wide flush that the cluster served as one coalesced run.
func TestCrossClientBatching(t *testing.T) {
	h := newHarness(t, 1, Options{BatchWindow: 4, BatchDwell: 10 * time.Second}, nil)
	fn := algos.CRC32()
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(h.addr, client.Options{MaxRetries: -1})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			in := []byte{byte(i + 1), 2, 3, byte(i)}
			want, _ := fn.Exec(in)
			out, _, err := c.Call(context.Background(), fn.ID(), in)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(out, want) {
				errs[i] = fmt.Errorf("client %d got wrong bytes", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	hist := h.reg.Histogram("agile_net_batch_window_size")
	if hist.Count() != 1 || hist.Sum() != n {
		t.Errorf("window histogram count=%d sum=%d, want one flush of %d", hist.Count(), hist.Sum(), n)
	}
	if d := h.reg.Counter("agile_net_batch_dwell_ps_total").Value(); d == 0 {
		t.Error("dwell counter recorded nothing")
	}
	if cj := h.reg.Counter("agile_cluster_coalesced_jobs_total", metrics.L("card", "0")).Value(); cj < n {
		t.Errorf("coalesced jobs = %d, want >= %d — the window must run as one batch", cj, n)
	}
}

// TestBatchDwellFlushesPartialWindow: a lone request must not wait for
// a window that will never fill — the dwell timer flushes it.
func TestBatchDwellFlushesPartialWindow(t *testing.T) {
	h := newHarness(t, 1, Options{BatchWindow: 64, BatchDwell: 2 * time.Millisecond}, nil)
	c, err := client.Dial(h.addr, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := []byte{5, 6, 7, 8}
	want, _ := algos.CRC32().Exec(in)
	out, _, err := c.Call(context.Background(), algos.CRC32().ID(), in)
	if err != nil || !bytes.Equal(out, want) {
		t.Fatalf("lone batched call: out=%x err=%v", out, err)
	}
	hist := h.reg.Histogram("agile_net_batch_window_size")
	if hist.Count() != 1 || hist.Sum() != 1 {
		t.Errorf("window histogram count=%d sum=%d, want one flush of 1", hist.Count(), hist.Sum())
	}
}

// TestSequentialIDReuseIsLegal: the in-flight id set is per request
// lifetime, not per connection lifetime — a client may reuse an id
// once the first use was answered (retries do exactly this).
func TestSequentialIDReuseIsLegal(t *testing.T) {
	h := newHarness(t, 1, Options{}, nil)
	conn, err := net.Dial("tcp", h.addr)
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
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp, err := wire.ReadResponse(conn)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != 42 || resp.Status != wire.StatusOK || !bytes.Equal(resp.Payload, want) {
			t.Fatalf("round %d: %+v", round, resp)
		}
	}
}
