package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"agilefpga/internal/wire"
)

// TestAbandonedWaiterIsNotRecycled races each call's cancellation
// against its own answer, then issues the next call on the same
// connection, which must get its own answer. When the cancellation wins
// just after the reader has taken the waiter, the reader still fills it
// and signals it. Recycled on that abandon path, the waiter would be
// handed to the next call with the stale signal pending (and the race
// detector sees the reader writing a waiter another call owns), so the
// abandon path must leave it to the garbage collector.
func TestAbandonedWaiterIsNotRecycled(t *testing.T) {
	// The fake server answers every request after a delay of Fn
	// microseconds, echoing its payload.
	fs := newFakeServer(t, func(c net.Conn) {
		var wmu sync.Mutex
		var wg sync.WaitGroup
		defer wg.Wait()
		for {
			req, err := readRequest(c)
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(req.Fn) * time.Microsecond)
				wmu.Lock()
				defer wmu.Unlock()
				wire.WriteResponse(c, &wire.Response{ID: req.ID, Status: wire.StatusOK, Payload: req.Payload})
			}()
		}
	})
	cl, err := Dial(fs.addr(), Options{PoolSize: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const budget = 400 * time.Microsecond
	abandoned := 0
	for i := 0; i < 200; i++ {
		// The answer is due around the cancellation: which one wins
		// varies from round to round. A cancellation, unlike a deadline,
		// does not bound the request's write, so the connection survives
		// every round.
		delay := uint16(budget/time.Microsecond) - 100 + uint16(i%9)*25
		late := []byte(fmt.Sprintf("late-%d", i))
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(budget, cancel)
		out, _, err := cl.Call(ctx, delay, late)
		timer.Stop()
		cancel()
		switch {
		case errors.Is(err, context.Canceled):
			abandoned++
		case err != nil:
			t.Fatalf("round %d: racing call: %v", i, err)
		case !bytes.Equal(out, late):
			t.Fatalf("round %d: racing call got %q, want %q", i, out, late)
		}
		next := []byte(fmt.Sprintf("next-%d", i))
		if out, _, err := cl.Call(context.Background(), 0, next); err != nil || !bytes.Equal(out, next) {
			t.Fatalf("round %d: the call after the race got %q, %v, want its own %q", i, out, err, next)
		}
	}
	if abandoned == 0 {
		t.Log("no call was abandoned: the cancellation never won a race")
	}
	if got := fs.accepted.Load(); got != 1 {
		t.Errorf("server saw %d connections, want 1", got)
	}
}
