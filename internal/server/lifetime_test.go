package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/client"
	"agilefpga/internal/wire"
)

// TestExpiredRequestKeepsItsFrame: a request whose deadline fires while
// its job waits in a coalesced run behind a slow stage is answered at
// once, but the card still stages its input — straight out of the
// request's frame — when the run reaches it. The frame must not go back
// to the pool before then, or the connection loop reads the next request
// into it while the card copies from it. Requests arrive one every
// 300 µs, each 1 KiB of viterbi (about a millisecond of card time, more
// under -race) with a 1 ms budget, so some expire inside a run while
// the loop keeps reading; the race detector sees any early release.
func TestExpiredRequestKeepsItsFrame(t *testing.T) {
	h := newHarness(t, 1, Options{}, nil)
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 200
	payload := func(i int) []byte {
		p := make([]byte, 1024)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		return p
	}
	var expired, served atomic.Int64
	// Load viterbi first, so the timed requests meet a resident stage.
	if err := wire.WriteRequest(conn, &wire.Request{ID: n, Fn: algos.IDViterbi, Payload: payload(n)}); err != nil {
		t.Fatal(err)
	}
	if resp, err := wire.ReadResponse(conn); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("warm-up: %+v, %v", resp, err)
	}
	done := make(chan error, 1)
	go func() {
		for range n {
			resp, err := wire.ReadResponse(conn)
			if err != nil {
				done <- err
				return
			}
			switch resp.Status {
			case wire.StatusDeadlineExceeded:
				expired.Add(1)
			case wire.StatusOK:
				served.Add(1)
				want, err := algos.Viterbi().Exec(payload(int(resp.ID)))
				if err != nil || !bytes.Equal(resp.Payload, want) {
					done <- fmt.Errorf("request %d: wrong output", resp.ID)
					return
				}
			case wire.StatusResourceExhausted:
			default:
				done <- fmt.Errorf("request %d: %s: %s", resp.ID, resp.Status, resp.Payload)
				return
			}
		}
		done <- nil
	}()
	for i := range n {
		req := &wire.Request{ID: uint64(i), Fn: algos.IDViterbi, Deadline: time.Millisecond, Payload: payload(i)}
		if err := wire.WriteRequest(conn, req); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Microsecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if expired.Load() == 0 {
		t.Log("no request expired in the queue: the window was not exercised")
	}
	t.Logf("%d served, %d expired", served.Load(), expired.Load())
}

// TestCallOutlivesReply: a handler may read its request's fields after
// Reply — the server's own handler logs rq.ID and rq.Fn then — so the
// front end recycles a Call only once its handler returns. Each handler
// here replies, lets the connection loop read on, and then checks that
// its Call still holds its own request.
func TestCallOutlivesReply(t *testing.T) {
	var wrong atomic.Int64
	fe := NewFrontEnd("test", 1024, nil, Handler{Serve: func(ctx context.Context, rq *Call) {
		id, fn := rq.ID, rq.Fn
		rq.Reply(wire.StatusOK, 0, rq.Payload)
		time.Sleep(200 * time.Microsecond)
		if rq.ID != id || rq.Fn != fn {
			wrong.Add(1)
		}
	}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serr := make(chan error, 1)
	go func() { serr <- fe.Serve(ln) }()
	defer func() {
		fe.Close()
		<-serr
	}()
	c, err := client.Dial(ln.Addr().String(), client.Options{PoolSize: 2, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				in := []byte(fmt.Sprintf("caller %d call %d", g, i))
				out, _, err := c.Call(context.Background(), uint16(g), in)
				if err != nil || !bytes.Equal(out, in) {
					errs <- fmt.Errorf("caller %d call %d: %q, %v", g, i, out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d handlers saw another request's fields after Reply", n)
	}
}

// TestExpiredRequestKeepsItsOutput: the card reads each output into a
// buffer its request's cluster.Pending keeps across uses, and the
// server writes an answer straight out of that buffer. So the server
// releases a Pending only after its reply is written, and never
// releases one whose request expired: the job may still be on the card,
// which writes the buffer when it finishes. Eight connections interleave
// 1 KiB viterbi requests on a 1 ms budget — about a millisecond of card
// time, so some expire while their run is on the card — with 256 B
// sha256 requests that have no deadline, all on one card. Every answer
// served must be its own request's output; under -race an early release
// shows as a write into a buffer another request's reply is reading.
func TestExpiredRequestKeepsItsOutput(t *testing.T) {
	h := newHarness(t, 1, Options{}, nil)
	const conns, n = 8, 60
	payload := func(c, i int) []byte {
		p := make([]byte, 1024)
		if i%2 == 1 {
			p = p[:256]
		}
		for j := range p {
			p[j] = byte(c*97 + i*31 + j)
		}
		return p
	}
	fnOf := func(i int) *algos.Function {
		if i%2 == 1 {
			return algos.SHA256()
		}
		return algos.Viterbi()
	}
	var expired, served atomic.Int64
	errs := make(chan error, conns)
	var wg sync.WaitGroup
	for c := range conns {
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range n {
				resp, err := wire.ReadResponse(conn)
				if err != nil {
					errs <- err
					return
				}
				i := int(resp.ID)
				switch resp.Status {
				case wire.StatusDeadlineExceeded:
					if fnOf(i) != algos.Viterbi() {
						errs <- fmt.Errorf("conn %d request %d expired without a deadline", c, i)
						return
					}
					expired.Add(1)
				case wire.StatusOK:
					served.Add(1)
					want, err := fnOf(i).Exec(payload(c, i))
					if err != nil || !bytes.Equal(resp.Payload, want) {
						errs <- fmt.Errorf("conn %d request %d (%s): wrong output", c, i, fnOf(i).Name())
						return
					}
				case wire.StatusResourceExhausted:
				default:
					errs <- fmt.Errorf("conn %d request %d: %s: %s", c, i, resp.Status, resp.Payload)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				req := &wire.Request{ID: uint64(i), Fn: fnOf(i).ID(), Payload: payload(c, i)}
				if fnOf(i) == algos.Viterbi() {
					req.Deadline = time.Millisecond
				}
				if err := wire.WriteRequest(conn, req); err != nil {
					errs <- err
					return
				}
				time.Sleep(150 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if expired.Load() == 0 {
		t.Log("no request expired: the window was not exercised")
	}
	t.Logf("%d served, %d expired", served.Load(), expired.Load())
}

// TestHandOffDuringClose: a connection loop that admitted a request
// just before Close began still hands it off after Close has started.
// Close closes the idle channel only once every connection loop has
// exited, so that hand-off neither panics on a closed channel nor
// loses the request. The loop here is simulated: it holds an admitted
// request and hands it off well after the drain has begun.
func TestHandOffDuringClose(t *testing.T) {
	served := make(chan struct{})
	fe := NewFrontEnd("test", 1, nil, Handler{Serve: func(context.Context, *Call) { close(served) }})
	fe.sem <- struct{}{}
	fe.inflight.Add(1)
	fe.connWG.Add(1)
	handedOff := make(chan error, 1)
	go func() {
		defer fe.connWG.Done()
		defer func() {
			if r := recover(); r != nil {
				handedOff <- fmt.Errorf("hand-off during Close: %v", r)
			}
		}()
		for !fe.Draining() {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // Close is now as far as it gets while a loop runs
		fe.handOff(newCall(nil, "simulated"))
		handedOff <- nil
	}()
	fe.Close()
	if err := <-handedOff; err != nil {
		t.Fatal(err)
	}
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("a request handed off during Close was never served")
	}
}
