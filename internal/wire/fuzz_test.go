package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzDecodeRequest drives the request decoder — plain and chain
// frames — with arbitrary bytes. Three invariants must hold for every
// input: the decoder never panics, it never accepts a stage list the
// card could not run, and any frame it accepts re-encodes to exactly
// the bytes it consumed (the encoding is canonical, so decode ∘ encode
// is the identity on valid frames).
func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{ID: 1, Fn: 7, Deadline: time.Second, Payload: []byte("seed")}))
	f.Add(AppendRequest(nil, &Request{ID: 0, Fn: 0, Payload: []byte{}}))
	f.Add(AppendRequest(nil, &Request{ID: 1<<64 - 1, Fn: 1<<16 - 1, Deadline: time.Hour,
		Payload: bytes.Repeat([]byte{0x5A}, 300)}))
	// Hostile shapes: truncated, bad magic, huge length prefix,
	// mismatched inner length, response frame fed to the request
	// decoder.
	valid := AppendRequest(nil, &Request{ID: 9, Fn: 2, Payload: []byte("abc")})
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 26, 0xA6, 0x1E, 1, 2})
	f.Add(AppendResponse(nil, &Response{ID: 9, Status: StatusOK, Card: 1, Payload: []byte("abc")}))
	// A zero deadline is the explicit "no deadline" encoding and must
	// round-trip like any other valid frame.
	f.Add(AppendRequest(nil, &Request{ID: 2, Fn: 3, Deadline: 0, Payload: []byte("z")}))
	// A header whose payload length claims MaxPayload+1 bytes: the
	// decoder must reject on the claimed length, before allocating.
	f.Add(oversizedHeader(TypeRequest))
	// Pipelined streams, the shapes a multiplexing client produces:
	// interleaved ids back to back, the same id twice in flight (the
	// server must reject the duplicate, the decoder must still parse
	// each frame), and a stream cut mid-way through the second frame.
	f.Add(pipelined(1, 2))
	f.Add(pipelined(9, 9))
	two := pipelined(3, 4)
	f.Add(two[:len(two)-5])
	// Trace context present, absent, and truncated mid-context: the
	// traced frame must round-trip canonically, the truncation must be
	// rejected before the payload-length cross-check can mislead.
	traced := AppendRequest(nil, &Request{ID: 11, Fn: 4, Deadline: time.Second,
		Payload: []byte("ctx"), Trace: TraceContext{TraceID: 0xDEAD, SpanID: 0xBEEF, Flags: FlagSampled}})
	f.Add(traced)
	f.Add(AppendRequest(nil, &Request{ID: 11, Fn: 4, Deadline: time.Second, Payload: []byte("ctx")}))
	f.Add(traced[:lenPrefix+requestHeaderLen+5])
	// Malformed context in a well-formed traced frame: zero trace id
	// and undefined flag bits are both non-canonical (the encoder would
	// never emit them) and must be rejected, not silently accepted.
	f.Add(malformedTrace(0, 7, 0))
	f.Add(malformedTrace(3, 7, 0x80))
	// Router-forwarded shapes: agilerouter decodes a client frame and
	// re-encodes it toward a backend with its own request id, its own
	// span id under the same trace id, and the remaining deadline
	// budget. Seed the inbound frame, the forwarded frame, and the
	// two-hop concatenation (both hops on one stream), traced and
	// untraced.
	inbound := &Request{ID: 21, Fn: 5, Deadline: 2 * time.Second, Payload: []byte("hop"),
		Trace: TraceContext{TraceID: 0xFEED, SpanID: 0x1001, Flags: FlagSampled}}
	forwarded := &Request{ID: 1, Fn: 5, Deadline: 1900 * time.Millisecond, Payload: []byte("hop"),
		Trace: TraceContext{TraceID: 0xFEED, SpanID: 0x2002, Flags: FlagSampled}}
	f.Add(AppendRequest(nil, forwarded))
	f.Add(AppendRequest(AppendRequest(nil, inbound), forwarded))
	f.Add(AppendRequest(
		AppendRequest(nil, &Request{ID: 22, Fn: 6, Deadline: time.Second, Payload: []byte("hop")}),
		&Request{ID: 2, Fn: 6, Deadline: 900 * time.Millisecond, Payload: []byte("hop")}))
	// The chain seeds follow, so this one target covers both frame types.
	for _, s := range chainSeeds() {
		f.Add(s)
	}

	f.Fuzz(checkRequestDecode)
}

// FuzzDecodeChain drives the same decoder and invariants from the chain
// seeds alone, so a chain-frame regression is reported under its own
// name.
func FuzzDecodeChain(f *testing.F) {
	for _, s := range chainSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkRequestDecode)
}

// chainSeeds returns the chain-frame seeds shared by the request fuzz
// targets.
func chainSeeds() [][]byte {
	var seeds [][]byte
	// Chain frames: valid chains, untraced and traced.
	seeds = append(seeds,
		AppendRequest(nil, &Request{ID: 1, Fn: 3, Next: []uint16{4},
			Deadline: time.Second, Payload: []byte("seed")}),
		AppendRequest(nil, &Request{ID: 2, Fn: 1, Next: []uint16{2, 3, 4, 5, 6, 7, 8},
			Payload: bytes.Repeat([]byte{0x5A}, 300)}),
		AppendRequest(nil, &Request{ID: 3, Fn: 9, Next: []uint16{10},
			Deadline: time.Minute, Payload: []byte("ctx"),
			Trace: TraceContext{TraceID: 0xDEAD, SpanID: 0xBEEF, Flags: FlagSampled}}))
	// Empty chain: a zero stage count is non-canonical and must be
	// rejected, not decoded as a request with no work.
	seeds = append(seeds, chainFrame(0, nil, []byte("p")))
	// Oversized stage list: more stages than the card's latch.
	seeds = append(seeds, chainFrame(MaxChainStages+1, make([]uint16, MaxChainStages+1), []byte("p")))
	// One stage: a chain frame starts at two (one stage is a plain call).
	seeds = append(seeds, chainFrame(1, []uint16{5}, []byte("p")))
	// A plain request frame next to the chain seeds: both types decode.
	seeds = append(seeds, AppendRequest(nil, &Request{ID: 9, Fn: 2, Payload: []byte("abc")}))
	// Truncation inside the stage list.
	chain := AppendRequest(nil, &Request{ID: 4, Fn: 1, Next: []uint16{2, 3}, Payload: []byte("abc")})
	seeds = append(seeds, chain[:lenPrefix+chainHeaderLen+3], chain[:len(chain)-1])
	// A traced chain whose trace id (7, all in its low byte) is zeroed in
	// place: non-canonical context, rejected.
	mft := AppendRequest(nil, &Request{ID: 5, Fn: 1, Next: []uint16{2}, Payload: []byte("p"),
		Trace: TraceContext{TraceID: 7, SpanID: 8, Flags: FlagSampled}})
	mft[lenPrefix+25+7] = 0
	return append(seeds, mft)
}

// checkRequestDecode is the body shared by the request fuzz targets.
func checkRequestDecode(t *testing.T, data []byte) {
	req, n, err := DecodeRequest(data)
	if err != nil {
		if req != nil || n != 0 {
			t.Fatalf("failed decode leaked state: req=%v n=%d", req, n)
		}
		return
	}
	if n < lenPrefix+requestHeaderLen || n > len(data) {
		t.Fatalf("consumed %d of %d", n, len(data))
	}
	if len(req.Next) >= MaxChainStages {
		t.Fatalf("accepted %d stages", 1+len(req.Next))
	}
	if len(req.Payload) > MaxPayload {
		t.Fatalf("accepted payload of %d bytes", len(req.Payload))
	}
	if req.Deadline < 0 {
		t.Fatalf("accepted negative deadline %v", req.Deadline)
	}
	reenc := AppendRequest(nil, req)
	if !bytes.Equal(reenc, data[:n]) {
		t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data[:n], reenc)
	}
}

// FuzzDecodeResponse is the response-side twin: the decoder never
// panics, never accepts an oversized payload, and every accepted frame
// re-encodes canonically.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(AppendResponse(nil, &Response{ID: 1, Status: StatusOK, Card: 0, Payload: []byte("seed")}))
	f.Add(AppendResponse(nil, &Response{ID: 0, Status: StatusInternal, Card: -1, Payload: []byte{}}))
	f.Add(AppendResponse(nil, &Response{ID: 1<<64 - 1, Status: StatusUnavailable, Card: 1<<15 - 1,
		Payload: bytes.Repeat([]byte{0xC3}, 300)}))
	valid := AppendResponse(nil, &Response{ID: 9, Status: StatusNotFound, Card: 2, Payload: []byte("abc")})
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// A request frame fed to the response decoder must be rejected on
	// frame type.
	f.Add(AppendRequest(nil, &Request{ID: 9, Fn: 2, Payload: []byte("abc")}))
	f.Add(oversizedHeader(TypeResponse))
	// Out-of-order pipelined responses: interleaved ids, a duplicated
	// id (a demuxing client drops the unmatched one), and a stream cut
	// mid-way through the second frame.
	f.Add(pipelinedResponses(2, 1))
	f.Add(pipelinedResponses(6, 6))
	two := pipelinedResponses(7, 8)
	f.Add(two[:len(two)-5])
	// Router-forwarded shapes: the backend's response to the router's
	// mux id followed by the router's re-encoded response to the
	// client's original id, same payload and card — both hops of a
	// proxied reply on one stream, plus an error passthrough
	// (RESOURCE_EXHAUSTED relayed verbatim to the caller).
	f.Add(AppendResponse(
		AppendResponse(nil, &Response{ID: 1, Status: StatusOK, Card: 3, Payload: []byte("hop")}),
		&Response{ID: 21, Status: StatusOK, Card: 3, Payload: []byte("hop")}))
	f.Add(AppendResponse(
		AppendResponse(nil, &Response{ID: 2, Status: StatusResourceExhausted, Card: -1, Payload: []byte("card queue full")}),
		&Response{ID: 22, Status: StatusResourceExhausted, Card: -1, Payload: []byte("card queue full")}))

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, n, err := DecodeResponse(data)
		if err != nil {
			if resp != nil || n != 0 {
				t.Fatalf("failed decode leaked state: resp=%v n=%d", resp, n)
			}
			return
		}
		if n < lenPrefix+responseHeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		if len(resp.Payload) > MaxPayload {
			t.Fatalf("accepted payload of %d bytes", len(resp.Payload))
		}
		reenc := AppendResponse(nil, resp)
		if !bytes.Equal(reenc, data[:n]) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data[:n], reenc)
		}
	})
}

// pipelined concatenates two request frames carrying the given ids —
// the on-wire shape of a multiplexed connection with two calls in
// flight.
func pipelined(id1, id2 uint64) []byte {
	b := AppendRequest(nil, &Request{ID: id1, Fn: 2, Deadline: time.Second, Payload: []byte("one")})
	return AppendRequest(b, &Request{ID: id2, Fn: 3, Payload: []byte("two")})
}

// pipelinedResponses concatenates two response frames carrying the
// given ids — responses arriving out of submission order.
func pipelinedResponses(id1, id2 uint64) []byte {
	b := AppendResponse(nil, &Response{ID: id1, Status: StatusOK, Card: 0, Payload: []byte("one")})
	return AppendResponse(b, &Response{ID: id2, Status: StatusOK, Card: 1, Payload: []byte("two")})
}

// malformedTrace hand-assembles a VersionTraced request frame carrying
// the given context verbatim — shapes the encoder refuses to emit
// (zero trace id, undefined flag bits) that the decoder must reject to
// keep decode ∘ encode the identity.
func malformedTrace(traceID, spanID uint64, flags uint8) []byte {
	payload := []byte("p")
	headerLen := requestHeaderLen + TraceContextLen
	b := make([]byte, 0, lenPrefix+headerLen+len(payload))
	b = binary.BigEndian.AppendUint32(b, uint32(headerLen+len(payload)))
	b = binary.BigEndian.AppendUint16(b, Magic)
	b = append(b, VersionTraced, TypeRequest)
	b = binary.BigEndian.AppendUint64(b, 1) // id
	b = binary.BigEndian.AppendUint16(b, 7) // fn
	b = binary.BigEndian.AppendUint64(b, 0) // deadline
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint64(b, traceID)
	b = binary.BigEndian.AppendUint64(b, spanID)
	b = append(b, flags)
	return append(b, payload...)
}

// oversizedHeader builds a frame header of the given type whose payload
// length field claims MaxPayload+1 bytes (with a matching frame length
// and no body) — the shape a hostile peer would use to balloon the
// decoder's allocation.
func oversizedHeader(frameType byte) []byte {
	headerLen := requestHeaderLen
	if frameType == TypeResponse {
		headerLen = responseHeaderLen
	}
	b := make([]byte, 0, lenPrefix+headerLen)
	b = binary.BigEndian.AppendUint32(b, uint32(headerLen+MaxPayload+1))
	b = binary.BigEndian.AppendUint16(b, Magic)
	b = append(b, Version, frameType)
	b = binary.BigEndian.AppendUint64(b, 1) // id
	switch frameType {
	case TypeRequest:
		b = binary.BigEndian.AppendUint16(b, 7) // fn
		b = binary.BigEndian.AppendUint64(b, 0) // deadline
	case TypeResponse:
		b = append(b, byte(StatusOK))
		b = binary.BigEndian.AppendUint16(b, 0) // card
	}
	b = binary.BigEndian.AppendUint32(b, MaxPayload+1)
	return b
}
