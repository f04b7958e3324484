package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"agilefpga/internal/testutil"
)

// TestRequestEncodingGolden pins request frames byte for byte:
// testdata/request_encoding.json was captured from the encoders that
// kept plain calls and chains in two request types, so one type with a
// stage tail must reproduce both wire formats exactly — v1 and traced
// v2 plain calls, 2- and 8-stage chains with and without trace context,
// an empty payload, and negative deadlines clamped to 0.
func TestRequestEncodingGolden(t *testing.T) {
	tc := TraceContext{TraceID: 0x0102030405060708, SpanID: 0x1112131415161718, Flags: FlagSampled}
	enc := func(req *Request) string { return hex.EncodeToString(AppendRequest(nil, req)) }
	seven := []uint16{2, 3, 4, 5, 6, 7, 8}
	got := map[string]string{
		"v1_call": enc(&Request{ID: 1, Fn: 7,
			Deadline: 250 * time.Millisecond, Payload: []byte("hello fabric")}),
		"v2_traced_call": enc(&Request{ID: 2, Fn: 9,
			Deadline: time.Second, Payload: []byte("traced"), Trace: tc}),
		"chain2": enc(&Request{ID: 3, Fn: 3, Next: []uint16{4},
			Deadline: time.Second, Payload: []byte("chain")}),
		"chain2_traced": enc(&Request{ID: 4, Fn: 3, Next: []uint16{4},
			Payload: []byte("chain"), Trace: tc}),
		"chain8": enc(&Request{ID: 5, Fn: 1, Next: seven,
			Deadline: time.Minute, Payload: bytes.Repeat([]byte{0x5A}, 40)}),
		"chain8_traced": enc(&Request{ID: 6, Fn: 1, Next: seven,
			Payload: bytes.Repeat([]byte{0xA5}, 40), Trace: tc}),
		"empty_payload": enc(&Request{ID: 7, Fn: 2}),
		"negative_deadline": enc(&Request{ID: 8, Fn: 2,
			Deadline: -time.Second, Payload: []byte("x")}),
		"negative_deadline_chain": enc(&Request{ID: 9, Fn: 2, Next: []uint16{5},
			Deadline: -time.Second, Payload: []byte("x")}),
	}
	testutil.GoldenJSON(t, "testdata/request_encoding.json", got)
}
