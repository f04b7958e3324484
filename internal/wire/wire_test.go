package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{ID: 1, Fn: 7, Deadline: 250 * time.Millisecond, Payload: []byte("hello fabric")},
		{ID: 0, Fn: 0, Deadline: 0, Payload: []byte{0}},
		{ID: 1<<64 - 1, Fn: 1<<16 - 1, Deadline: time.Hour, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{ID: 42, Fn: 3, Payload: []byte{}},
	}
	for i, req := range cases {
		b := AppendRequest(nil, req)
		got, n, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("case %d: consumed %d of %d", i, n, len(b))
		}
		if got.ID != req.ID || got.Fn != req.Fn || got.Deadline != req.Deadline ||
			!bytes.Equal(got.Payload, req.Payload) {
			t.Fatalf("case %d: round trip mismatch: %+v vs %+v", i, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []*Response{
		{ID: 9, Status: StatusOK, Card: 3, Payload: []byte("output")},
		{ID: 10, Status: StatusResourceExhausted, Card: -1, Payload: []byte("server at capacity")},
		{ID: 11, Status: StatusInternal, Card: 0, Payload: nil},
	}
	for i, resp := range cases {
		b := AppendResponse(nil, resp)
		got, n, err := DecodeResponse(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("case %d: consumed %d of %d", i, n, len(b))
		}
		if got.ID != resp.ID || got.Status != resp.Status || got.Card != resp.Card ||
			!bytes.Equal(got.Payload, resp.Payload) {
			t.Fatalf("case %d: round trip mismatch: %+v vs %+v", i, got, resp)
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reqs := []*Request{
		{ID: 1, Fn: 2, Payload: []byte("a")},
		{ID: 2, Fn: 2, Deadline: time.Second, Payload: []byte("bb")},
		{ID: 3, Fn: 5, Payload: []byte("ccc")},
	}
	for _, r := range reqs {
		if err := WriteRequest(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range reqs {
		var got Request
		fr, err := ReadRequestFrame(&buf, &got)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("stream mismatch: %+v vs %+v", got, want)
		}
		fr.Release()
	}
	if _, err := ReadRequestFrame(&buf, new(Request)); err != io.EOF {
		t.Fatalf("empty stream err = %v, want io.EOF", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := AppendRequest(nil, &Request{ID: 5, Fn: 1, Payload: []byte("payload")})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeRequest(full[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	// Mid-frame stream close is distinguished from a clean close.
	if _, err := ReadRequestFrame(bytes.NewReader(full[:len(full)-2]), new(Request)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("stream cut err should be ErrTruncated")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	b := AppendRequest(nil, &Request{ID: 5, Fn: 1, Payload: []byte("x")})
	b[4] ^= 0xFF // first magic byte lives just past the length prefix
	if _, _, err := DecodeRequest(b); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	b := AppendRequest(nil, &Request{ID: 5, Fn: 1, Payload: []byte("x")})
	b[6] = 99
	if _, _, err := DecodeRequest(b); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeWrongType(t *testing.T) {
	req := AppendRequest(nil, &Request{ID: 5, Fn: 1, Payload: []byte("x")})
	if _, _, err := DecodeResponse(req); !errors.Is(err, ErrBadType) {
		t.Fatalf("response decoder took a request frame: %v", err)
	}
	// Payload long enough that the response frame passes the request
	// decoder's minimum-length gate and reaches the type check.
	resp := AppendResponse(nil, &Response{ID: 5, Status: StatusOK, Card: 0, Payload: []byte("xxxxxxxx")})
	if _, _, err := DecodeRequest(resp); !errors.Is(err, ErrBadType) {
		t.Fatalf("request decoder took a response frame: %v", err)
	}
}

func TestDecodeOversized(t *testing.T) {
	b := AppendRequest(nil, &Request{ID: 5, Fn: 1, Payload: []byte("x")})
	// The oversize bound allows for the largest accepted header (a
	// traced chain of MaxChainStages stages); one byte past it must
	// reject before allocating.
	binary.BigEndian.PutUint32(b, uint32(maxRequestHeaderLen+MaxPayload+1))
	if _, _, err := DecodeRequest(b); !errors.Is(err, ErrOversized) {
		t.Fatalf("err = %v, want ErrOversized", err)
	}
	// The stream reader must reject the length prefix before allocating.
	if _, err := ReadRequestFrame(bytes.NewReader(b), new(Request)); !errors.Is(err, ErrOversized) {
		t.Fatalf("stream err = %v, want ErrOversized", err)
	}
	if err := WriteRequest(io.Discard, &Request{ID: 1, Fn: 1, Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrOversized) {
		t.Fatalf("write err = %v, want ErrOversized", err)
	}
}

func TestDecodeLengthMismatch(t *testing.T) {
	b := AppendRequest(nil, &Request{ID: 5, Fn: 1, Payload: []byte("abcd")})
	// Shrink the inner payload-length field so it disagrees with the
	// frame length.
	binary.BigEndian.PutUint32(b[lenPrefix+22:], 2)
	if _, _, err := DecodeRequest(b); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestDecodeBadDeadline(t *testing.T) {
	b := AppendRequest(nil, &Request{ID: 5, Fn: 1, Payload: []byte("x")})
	binary.BigEndian.PutUint64(b[lenPrefix+14:], 1<<63)
	if _, _, err := DecodeRequest(b); !errors.Is(err, ErrBadDeadline) {
		t.Fatalf("err = %v, want ErrBadDeadline", err)
	}
}

func TestDecodeTrailingBytesLeftAlone(t *testing.T) {
	one := AppendRequest(nil, &Request{ID: 1, Fn: 1, Payload: []byte("x")})
	two := AppendRequest(append([]byte(nil), one...), &Request{ID: 2, Fn: 1, Payload: []byte("y")})
	req, n, err := DecodeRequest(two)
	if err != nil || req.ID != 1 {
		t.Fatalf("first decode: %v %+v", err, req)
	}
	req, _, err = DecodeRequest(two[n:])
	if err != nil || req.ID != 2 {
		t.Fatalf("second decode: %v %+v", err, req)
	}
}

// TestZeroCopyAliasing pins the zero-copy contract: DecodeRequestInto's
// payload aliases the input buffer (no copy), and the Frame readers
// keep the payload valid until Release.
func TestZeroCopyAliasing(t *testing.T) {
	b := AppendRequest(nil, &Request{ID: 7, Fn: 3, Payload: []byte("alias me")})
	var req Request
	n, err := DecodeRequestInto(&req, b)
	if err != nil || n != len(b) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	b[len(b)-1] ^= 0xFF // mutating the buffer must show through the alias
	if req.Payload[len(req.Payload)-1] != 'e'^0xFF {
		t.Fatal("DecodeRequestInto copied the payload; it must alias")
	}

	var resp Response
	rb := AppendResponse(nil, &Response{ID: 7, Status: StatusOK, Card: 2, Payload: []byte("out")})
	fr, err := ReadResponseFrame(bytes.NewReader(rb), &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || !bytes.Equal(resp.Payload, []byte("out")) {
		t.Fatalf("frame read mismatch: %+v", resp)
	}
	fr.Release()
	Frame{}.Release() // the zero Frame must be a safe no-op
}

// TestReadRequestFrameStream drives the zero-copy reader over a
// pipelined stream and checks each frame against the copying reader's
// result.
func TestReadRequestFrameStream(t *testing.T) {
	var buf bytes.Buffer
	want := []*Request{
		{ID: 1, Fn: 2, Deadline: time.Second, Payload: []byte("first")},
		{ID: 2, Fn: 9, Payload: bytes.Repeat([]byte{0x7E}, 2048)},
		{ID: 3, Fn: 2, Payload: []byte("third")},
	}
	for _, r := range want {
		if err := WriteRequest(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	var req Request
	for _, w := range want {
		fr, err := ReadRequestFrame(&buf, &req)
		if err != nil {
			t.Fatal(err)
		}
		if req.ID != w.ID || req.Fn != w.Fn || req.Deadline != w.Deadline ||
			!bytes.Equal(req.Payload, w.Payload) {
			t.Fatalf("frame mismatch: %+v vs %+v", req, w)
		}
		fr.Release()
	}
	if _, err := ReadRequestFrame(&buf, &req); err != io.EOF {
		t.Fatalf("empty stream err = %v, want io.EOF", err)
	}
	// Errors return the zero Frame and recycle internally: a truncated
	// tail must not leak a buffer or a stale decode.
	full := AppendRequest(nil, &Request{ID: 4, Fn: 1, Payload: []byte("cut")})
	if _, err := ReadRequestFrame(bytes.NewReader(full[:len(full)-1]), &req); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated err = %v, want ErrTruncated", err)
	}
}

// TestReadAnyRequestFrame checks that the one request reader takes any
// request frame type: plain and chain frames interleaved on one stream,
// and a plain frame read into a Request that last held a chain clears
// its stage tail.
func TestReadAnyRequestFrame(t *testing.T) {
	var buf bytes.Buffer
	want := []*Request{
		{ID: 5, Fn: 3, Next: []uint16{4, 6}, Payload: []byte("chain")},
		{ID: 6, Fn: 7, Payload: []byte("plain")},
		{ID: 7, Fn: 1, Next: []uint16{2, 3, 4, 5, 6, 7, 8}, Deadline: time.Second, Payload: []byte("eight"),
			Trace: TraceContext{TraceID: 0xFEED, SpanID: 0x1001, Flags: FlagSampled}},
		{ID: 8, Fn: 9, Payload: []byte("plain again")},
	}
	for _, w := range want {
		if err := WriteRequest(&buf, w); err != nil {
			t.Fatal(err)
		}
	}
	var req Request
	for _, w := range want {
		fr, err := ReadRequestFrame(&buf, &req)
		if err != nil {
			t.Fatal(err)
		}
		if req.ID != w.ID || req.Fn != w.Fn || !slices.Equal(req.Next, w.Next) ||
			req.Deadline != w.Deadline || req.Trace != w.Trace || !bytes.Equal(req.Payload, w.Payload) {
			t.Fatalf("frame mismatch: %+v vs %+v", req, w)
		}
		fr.Release()
	}
	if _, err := ReadRequestFrame(&buf, &req); err != io.EOF {
		t.Fatalf("empty stream err = %v, want io.EOF", err)
	}
	// A chain frame cut short is refused like any other truncation.
	chain := AppendRequest(nil, want[0])
	if _, err := ReadRequestFrame(bytes.NewReader(chain[:len(chain)-1]), &req); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated chain err = %v, want ErrTruncated", err)
	}
}

func TestStatusStrings(t *testing.T) {
	for s := StatusOK; s <= StatusInternal; s++ {
		if s.String() == "" {
			t.Fatalf("status %d has no name", s)
		}
	}
	if Status(200).String() != "status_200" {
		t.Fatal("unknown status not labelled numerically")
	}
	if !StatusResourceExhausted.Retryable() || !StatusUnavailable.Retryable() {
		t.Fatal("overload statuses must be retryable")
	}
	if StatusOK.Retryable() || StatusInternal.Retryable() || StatusInvalidArgument.Retryable() {
		t.Fatal("non-transient statuses must not be retryable")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0xA1B2C3D4E5F60718, SpanID: 0x1122334455667788, Flags: FlagSampled}
	in := &Request{ID: 77, Fn: 9, Deadline: 250 * time.Millisecond, Payload: []byte("traced"), Trace: tc}
	b := AppendRequest(nil, in)
	if b[lenPrefix+2] != VersionTraced {
		t.Fatalf("traced request encoded as version %d, want %d", b[lenPrefix+2], VersionTraced)
	}
	out, n, err := DecodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d", n, len(b))
	}
	if out.Trace != tc {
		t.Fatalf("trace context = %+v, want %+v", out.Trace, tc)
	}
	if out.ID != in.ID || out.Fn != in.Fn || out.Deadline != in.Deadline || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("request fields lost through traced encoding: %+v", out)
	}
	if reenc := AppendRequest(nil, out); !bytes.Equal(reenc, b) {
		t.Fatalf("traced frame not canonical:\n in  %x\n out %x", b, reenc)
	}
	// An untraced request must stay byte-identical to the pre-trace
	// encoding (Version 1), so old peers interoperate.
	plain := AppendRequest(nil, &Request{ID: 77, Fn: 9, Deadline: 250 * time.Millisecond, Payload: []byte("traced")})
	if plain[lenPrefix+2] != Version {
		t.Fatalf("untraced request encoded as version %d, want %d", plain[lenPrefix+2], Version)
	}
	if len(plain) != len(b)-TraceContextLen {
		t.Fatalf("traced header overhead = %d bytes, want %d", len(b)-len(plain), TraceContextLen)
	}
	// Decoding a plain frame into a reused Request must clear stale
	// context from a previous traced decode.
	var reused Request
	if _, err := DecodeRequestInto(&reused, b); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequestInto(&reused, plain); err != nil {
		t.Fatal(err)
	}
	if reused.Trace.Valid() {
		t.Fatalf("stale trace context survived an untraced decode: %+v", reused.Trace)
	}
}

func TestTraceContextRejectsMalformed(t *testing.T) {
	// Zero trace id: the absent-context value must never ride a traced
	// frame (the encoder emits Version 1 for it).
	if _, _, err := DecodeRequest(malformedTrace(0, 5, FlagSampled)); !errors.Is(err, ErrBadTraceContext) {
		t.Fatalf("zero trace id err = %v, want ErrBadTraceContext", err)
	}
	// Undefined flag bits are non-canonical.
	if _, _, err := DecodeRequest(malformedTrace(5, 5, 0x02)); !errors.Is(err, ErrBadTraceContext) {
		t.Fatalf("unknown flags err = %v, want ErrBadTraceContext", err)
	}
	// A frame cut mid-context is truncated, not length-mismatched.
	traced := AppendRequest(nil, &Request{ID: 1, Fn: 1, Payload: []byte("x"),
		Trace: TraceContext{TraceID: 9, SpanID: 8, Flags: FlagSampled}})
	cut := traced[:lenPrefix+requestHeaderLen+4]
	binary.BigEndian.PutUint32(cut, uint32(len(cut)-lenPrefix))
	if _, _, err := DecodeRequest(cut); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated context err = %v, want ErrTruncated", err)
	}
	// Responses have no traced form: a VersionTraced response frame is
	// an unknown version.
	resp := AppendResponse(nil, &Response{ID: 1, Status: StatusOK, Card: 0, Payload: []byte("y")})
	resp[lenPrefix+2] = VersionTraced
	if _, _, err := DecodeResponse(resp); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("traced response err = %v, want ErrBadVersion", err)
	}
	// The sampled bit must survive the round trip and be readable.
	if !(TraceContext{TraceID: 1, Flags: FlagSampled}).Sampled() || (TraceContext{TraceID: 1}).Sampled() {
		t.Fatal("Sampled() does not reflect FlagSampled")
	}
}

// DecodeRequest decodes one request frame from the front of b,
// returning the bytes consumed. The payload is copied out of b, so the
// request owns its memory (the zero-copy variant is DecodeRequestInto).
func DecodeRequest(b []byte) (*Request, int, error) {
	var req Request
	n, err := DecodeRequestInto(&req, b)
	if err != nil {
		return nil, 0, err
	}
	req.Payload = append([]byte(nil), req.Payload...)
	return &req, n, nil
}
