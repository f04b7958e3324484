package wire

import (
	"bytes"
	"io"
	"testing"
)

// The wire benchmarks report allocations: the frame buffers on the
// encode and read paths come from a sync.Pool, so steady-state
// allocs/op must not scale with payload size. The copying decoders
// still pay one payload allocation (their API contract: the caller
// owns the result); the RequestPath benchmarks drive the zero-copy
// Frame variants, which must hold 0 allocs/op end to end.

func benchPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	return p
}

func BenchmarkWriteRequest(b *testing.B) {
	req := &Request{ID: 42, Fn: 7, Payload: benchPayload(4096)}
	b.ReportAllocs()
	b.SetBytes(int64(lenPrefix + requestHeaderLen + len(req.Payload)))
	for i := 0; i < b.N; i++ {
		if err := WriteRequest(io.Discard, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteResponse(b *testing.B) {
	resp := &Response{ID: 42, Status: StatusOK, Card: 1, Payload: benchPayload(4096)}
	b.ReportAllocs()
	b.SetBytes(int64(lenPrefix + responseHeaderLen + len(resp.Payload)))
	for i := 0; i < b.N; i++ {
		if err := WriteResponse(io.Discard, resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadResponse(b *testing.B) {
	frame := AppendResponse(nil, &Response{ID: 42, Status: StatusOK, Card: 1, Payload: benchPayload(4096)})
	rd := bytes.NewReader(frame)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		if _, err := ReadResponse(rd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerRequestPath is the server's per-request wire work,
// end to end: read a request zero-copy, hand the aliased payload
// onward (the cluster submit boundary), answer with a response whose
// payload needs no staging copy, and release the frame. One decoder
// reads plain calls and chains, so both frame types run here. The whole
// path must stay at 0 allocs/op, which TestRequestPathAllocs holds.
func BenchmarkServerRequestPath(b *testing.B) {
	for _, bc := range serverRequestPathCases {
		b.Run(bc.name, func(b *testing.B) { runOp(b, serverRequestPathOp(b, bc.next, TraceContext{})) })
	}
}

// serverRequestPathCases are BenchmarkServerRequestPath's frame types.
var serverRequestPathCases = []struct {
	name string
	next []uint16
}{{"call", nil}, {"chain", []uint16{3, 4}}}

// pathOp is one iteration of a request path's wire work, and the
// frame bytes it moves.
type pathOp struct {
	run      func()
	frameLen int
}

// runOp drives op b.N times, reporting allocations and throughput.
func runOp(b *testing.B, op pathOp) {
	b.ReportAllocs()
	b.SetBytes(int64(op.frameLen))
	for i := 0; i < b.N; i++ {
		op.run()
	}
}

// serverRequestPathOp is the server's wire work for a request with the
// given chain tail and trace context.
func serverRequestPathOp(tb testing.TB, next []uint16, tc TraceContext) pathOp {
	frame := AppendRequest(nil, &Request{ID: 42, Fn: 7, Next: next, Payload: benchPayload(4096), Trace: tc})
	rd := bytes.NewReader(frame)
	var req Request
	var resp Response
	return pathOp{func() {
		rd.Reset(frame)
		fr, err := ReadRequestFrame(rd, &req)
		if err != nil {
			tb.Fatal(err)
		}
		if req.Trace != tc {
			tb.Fatal("trace context lost on the read path")
		}
		// The response payload aliases the request's — standing in for
		// a function output handed straight to the encoder, no staging
		// copy in between.
		resp.ID, resp.Status, resp.Card, resp.Payload = req.ID, StatusOK, 0, req.Payload
		if err := WriteResponse(io.Discard, &resp); err != nil {
			tb.Fatal(err)
		}
		fr.Release()
	}, len(frame)}
}

// BenchmarkClientRequestPath is the client's per-call wire work: write
// the request, read the response zero-copy, release. Also 0 allocs/op.
func BenchmarkClientRequestPath(b *testing.B) {
	runOp(b, clientRequestPathOp(b, TraceContext{}))
}

// clientRequestPathOp is the client's wire work for a request with the
// given trace context.
func clientRequestPathOp(tb testing.TB, tc TraceContext) pathOp {
	req := &Request{ID: 42, Fn: 7, Payload: benchPayload(4096), Trace: tc}
	frame := AppendResponse(nil, &Response{ID: 42, Status: StatusOK, Card: 1, Payload: benchPayload(4096)})
	rd := bytes.NewReader(frame)
	var resp Response
	return pathOp{func() {
		if err := WriteRequest(io.Discard, req); err != nil {
			tb.Fatal(err)
		}
		rd.Reset(frame)
		fr, err := ReadResponseFrame(rd, &resp)
		if err != nil {
			tb.Fatal(err)
		}
		if resp.ID != req.ID {
			tb.Fatal("id mismatch")
		}
		fr.Release()
	}, len(frame)}
}

// BenchmarkRoundTrip drives a full request+response round trip through
// one in-memory buffer, the shape the server and client loops execute
// per call.
func BenchmarkRoundTrip(b *testing.B) {
	req := &Request{ID: 42, Fn: 7, Payload: benchPayload(4096)}
	resp := &Response{ID: 42, Status: StatusOK, Card: 0, Payload: benchPayload(4096)}
	var buf bytes.Buffer
	var got Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteRequest(&buf, req); err != nil {
			b.Fatal(err)
		}
		fr, err := ReadRequestFrame(&buf, &got)
		if err != nil {
			b.Fatal(err)
		}
		fr.Release()
		buf.Reset()
		if err := WriteResponse(&buf, resp); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadResponse(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// sampledTrace is the context a sampled request carries.
var sampledTrace = TraceContext{TraceID: 0xF00D, SpanID: 0xCAFE, Flags: FlagSampled}

// BenchmarkServerRequestPathTraced is BenchmarkServerRequestPath with
// trace context on the frame — the wire cost of a sampled request. The
// trace header rides the pooled buffers, so this path must also hold
// 0 allocs/op.
func BenchmarkServerRequestPathTraced(b *testing.B) {
	runOp(b, serverRequestPathOp(b, nil, sampledTrace))
}

// BenchmarkClientRequestPathTraced is the client-side twin: encoding
// the context costs 17 header bytes, never an allocation.
func BenchmarkClientRequestPathTraced(b *testing.B) {
	runOp(b, clientRequestPathOp(b, sampledTrace))
}
