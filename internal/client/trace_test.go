package client

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"agilefpga/internal/trace"
	"agilefpga/internal/wire"
)

// TestCallTracesRetriesAsChildSpans pins the client's span shape: one
// root call span per Call, one child attempt span per wire attempt —
// a refused first attempt becomes an errored child, the successful
// retry a clean one — and every attempt ships its own span id as the
// request's wire trace context.
func TestCallTracesRetriesAsChildSpans(t *testing.T) {
	var n atomic.Int64
	var ctxs [2]wire.TraceContext
	fs := newFakeServer(t, func(c net.Conn) {
		for {
			req, err := readRequest(c)
			if err != nil {
				return
			}
			i := n.Add(1)
			if i <= 2 {
				ctxs[i-1] = req.Trace
			}
			if i == 1 {
				wire.WriteResponse(c, &wire.Response{ID: req.ID, Status: wire.StatusResourceExhausted, Payload: []byte("full")})
				continue
			}
			wire.WriteResponse(c, &wire.Response{ID: req.ID, Status: wire.StatusOK, Payload: req.Payload})
		}
	})
	tracer := trace.NewTracer(trace.TracerOptions{Sample: 1, Seed: 21})
	defer tracer.Close()
	c, err := Dial(fs.addr(), Options{
		Tracer:      tracer,
		PoolSize:    1,
		BaseBackoff: time.Microsecond,
		JitterSeed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, _, err := c.Call(context.Background(), 7, []byte{1, 2, 3})
	if err != nil || len(out) != 3 {
		t.Fatalf("Call = %x, %v", out, err)
	}
	tracer.Close()
	captured := tracer.Captured()
	if len(captured) != 1 {
		t.Fatalf("captured %d traces, want 1", len(captured))
	}
	tr := captured[0]
	var call *trace.Span
	var attempts []*trace.Span
	for i := range tr.Spans {
		switch tr.Spans[i].Name {
		case "call":
			call = &tr.Spans[i]
		case "attempt":
			attempts = append(attempts, &tr.Spans[i])
		}
	}
	if call == nil || len(attempts) != 2 {
		t.Fatalf("want a call span and 2 attempts, got %+v", tr.Spans)
	}
	if call.Status != "ok" {
		t.Errorf("retried-to-success call must finish ok, got status %q", call.Status)
	}
	// The failed first attempt marks the whole trace errored — retries
	// are precisely what the error ring should surface — even though
	// the call itself recovered.
	if !tr.Err {
		t.Error("trace with a failed attempt must be flagged errored")
	}
	failed, succeeded := attempts[0], attempts[1]
	if failed.Status == "ok" {
		failed, succeeded = succeeded, failed
	}
	if failed.Status == "ok" || succeeded.Status != "ok" {
		t.Errorf("want one errored and one ok attempt, got %q and %q", attempts[0].Status, attempts[1].Status)
	}
	for i, a := range attempts {
		if a.Parent != call.SpanID {
			t.Errorf("attempt %d parent %#x, want call %#x", i, a.Parent, call.SpanID)
		}
	}
	// Both wire requests carried the trace with distinct attempt span
	// ids, so the server can tell the retry from the first try.
	for i, tc := range ctxs {
		if !tc.Valid() || !tc.Sampled() || tc.TraceID != tr.TraceID {
			t.Fatalf("attempt %d wire context %+v does not carry trace %#x", i, tc, tr.TraceID)
		}
	}
	if ctxs[0].SpanID == ctxs[1].SpanID {
		t.Error("retry reused the first attempt's span id")
	}
}

// TestUntracedCallShipsNoContext pins interop: without a tracer the
// client emits version-1 frames with no trace context at all.
func TestUntracedCallShipsNoContext(t *testing.T) {
	var got wire.TraceContext
	done := make(chan struct{}, 1)
	fs := newFakeServer(t, func(c net.Conn) {
		for {
			req, err := readRequest(c)
			if err != nil {
				return
			}
			got = req.Trace
			done <- struct{}{}
			wire.WriteResponse(c, &wire.Response{ID: req.ID, Status: wire.StatusOK, Payload: req.Payload})
		}
	})
	c, err := Dial(fs.addr(), Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Call(context.Background(), 7, []byte{1}); err != nil {
		t.Fatal(err)
	}
	<-done
	if got.Valid() {
		t.Fatalf("untraced client shipped trace context %+v", got)
	}
}
