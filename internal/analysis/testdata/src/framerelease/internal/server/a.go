// Package server is framerelease golden testdata shaped like the real
// connection read-loop: every wire.ReadRequestFrame /
// ReadResponseFrame acquisition must reach Frame.Release on all paths.
// The package classifies into the hard zone (internal/server), so
// //lint:allow framerelease suppresses nothing here — and is itself
// reported stale when it tries.
package server

import (
	"io"

	"agilefpga/internal/wire"
)

func sink(req *wire.Request) {}

func process(resp *wire.Response) error { return nil }

// serve is the clean read-loop shape: acquire, guard on the companion
// error, serve, release once per iteration.
func serve(r io.Reader) error {
	var req wire.Request
	for {
		fr, err := wire.ReadRequestFrame(r, &req)
		if err != nil {
			return err
		}
		sink(&req)
		fr.Release()
	}
}

// deferRelease is the other clean shape: release pinned to function
// exit the moment the acquisition succeeds.
func deferRelease(r io.Reader) error {
	var resp wire.Response
	fr, err := wire.ReadResponseFrame(r, &resp)
	if err != nil {
		return err
	}
	defer fr.Release()
	return process(&resp)
}

// leakOnReturn drops the frame on the early-out path; the error-guarded
// return stays exempt because a failed read returns the zero Frame.
func leakOnReturn(r io.Reader) error {
	var req wire.Request
	fr, err := wire.ReadRequestFrame(r, &req) // want `frame fr from wire\.ReadRequestFrame is not released before the return at line \d+`
	if err != nil {
		return err
	}
	if req.Fn == 0 {
		return nil
	}
	fr.Release()
	return nil
}

// doubleRelease re-pools a buffer another request may already own.
func doubleRelease(r io.Reader) error {
	var req wire.Request
	fr, err := wire.ReadRequestFrame(r, &req)
	if err != nil {
		return err
	}
	sink(&req)
	fr.Release()
	fr.Release() // want `frame fr released twice`
	return nil
}

// useAfterRelease touches the frame after its buffer was re-pooled.
func useAfterRelease(r io.Reader) error {
	var req wire.Request
	fr, err := wire.ReadRequestFrame(r, &req)
	if err != nil {
		return err
	}
	fr.Release()
	_ = fr // want `frame fr used after Release`
	return nil
}

// discard never binds the frame, so it can never be released.
func discard(r io.Reader) {
	var req wire.Request
	wire.ReadRequestFrame(r, &req) // want `result of wire\.ReadRequestFrame is discarded`
}

// transfer hands the frame to a callee: release duty moves with it.
func transfer(r io.Reader, consume func(wire.Frame)) error {
	var req wire.Request
	fr, err := wire.ReadRequestFrame(r, &req)
	if err != nil {
		return err
	}
	consume(fr)
	return nil
}

// readOne returns the frame to its caller along with the decoded
// request: duty transfers out.
func readOne(r io.Reader, req *wire.Request) (wire.Frame, error) {
	fr, err := wire.ReadRequestFrame(r, req)
	if err != nil {
		return wire.Frame{}, err
	}
	return fr, nil
}

// call is the front end's per-request record: storing the frame in it
// hands release duty to whoever answers the request.
type call struct {
	req wire.Request
	fr  wire.Frame
}

// connLoop is the front end's read loop. The duplicate-id early return
// drops the frame: the request is refused and the connection closes,
// but the pooled buffer must still go back.
func connLoop(r io.Reader, inflight map[uint64]bool, admit func(*call)) error {
	for {
		rq := new(call)
		fr, err := wire.ReadRequestFrame(r, &rq.req) // want `frame fr from wire\.ReadRequestFrame is not released before the return at line \d+`
		if err != nil {
			return err
		}
		if inflight[rq.req.ID] {
			return nil
		}
		inflight[rq.req.ID] = true
		rq.fr = fr
		admit(rq)
	}
}

// releasesParam discharges the duty that arrived with the parameter.
func releasesParam(fr wire.Frame, req *wire.Request) {
	sink(req)
	fr.Release()
}

// ownsParam receives release duty with the parameter and drops it.
func ownsParam(fr wire.Frame, req *wire.Request) { // want `frame parameter fr is not released on every path`
	sink(req)
}

// excused shows the hard zone ignoring directives: the leak is still
// reported, and the powerless directive is flagged stale on top.
func excused(r io.Reader) {
	var req wire.Request
	//lint:allow framerelease directives are powerless in the hard zone // want `stale directive: //lint:allow framerelease suppresses no framerelease diagnostic`
	fr, _ := wire.ReadRequestFrame(r, &req) // want `frame fr from wire\.ReadRequestFrame is not released on every path`
	sink(&req)
	_ = fr
}
