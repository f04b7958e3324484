// Package client is framerelease golden testdata shaped like the
// client's connection reader: each response frame is read zero-copy,
// routed to the call waiting for its id, and released. The package
// classifies into the hard zone (internal/client), so no directive can
// excuse a leak here.
package client

import (
	"io"
	"sync"

	"agilefpga/internal/wire"
)

type waiter struct {
	ready chan struct{}
	resp  wire.Response
}

type conn struct {
	mu      sync.Mutex
	waiters map[uint64]*waiter
}

func (c *conn) take(id uint64) *waiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.waiters[id]
	delete(c.waiters, id)
	return w
}

// readLoop is the clean shape: a late answer for an abandoned id is
// dropped and its frame released before the loop reads on.
func (c *conn) readLoop(r io.Reader) error {
	var resp wire.Response
	for {
		fr, err := wire.ReadResponseFrame(r, &resp)
		if err != nil {
			return err
		}
		w := c.take(resp.ID)
		if w == nil {
			fr.Release()
			continue
		}
		w.resp = resp
		w.resp.Payload = append([]byte(nil), resp.Payload...)
		fr.Release()
		w.ready <- struct{}{}
	}
}

// leakyReadLoop drops the late answer without releasing its frame: the
// pooled buffer leaks once per abandoned call.
func (c *conn) leakyReadLoop(r io.Reader) error {
	var resp wire.Response
	for {
		fr, err := wire.ReadResponseFrame(r, &resp) // want `frame fr from wire\.ReadResponseFrame is not released on every path`
		if err != nil {
			return err
		}
		w := c.take(resp.ID)
		if w == nil {
			continue
		}
		w.resp = resp
		w.resp.Payload = append([]byte(nil), resp.Payload...)
		fr.Release()
		w.ready <- struct{}{}
	}
}

// statusLoop breaks out of a switch, not the loop: the frame is still
// released below it, so nothing leaks.
func (c *conn) statusLoop(r io.Reader) error {
	var resp wire.Response
	for {
		fr, err := wire.ReadResponseFrame(r, &resp)
		if err != nil {
			return err
		}
		switch resp.Status {
		case wire.StatusOK:
			break
		default:
			resp.Payload = nil
		}
		fr.Release()
	}
}

// stopOnDrain breaks out of the loop with the frame still held.
func (c *conn) stopOnDrain(r io.Reader) error {
	var resp wire.Response
	for {
		fr, err := wire.ReadResponseFrame(r, &resp) // want `frame fr from wire\.ReadResponseFrame is not released on every path`
		if err != nil {
			return err
		}
		if resp.Status == wire.StatusUnavailable {
			break
		}
		fr.Release()
	}
	return nil
}
