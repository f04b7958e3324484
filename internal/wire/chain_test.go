package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"time"
)

// chainFrame hand-assembles a chain frame with an arbitrary stage count
// byte — shapes the encoder refuses to emit (empty or oversized stage
// lists) that the decoder must reject.
func chainFrame(nstages int, stages []uint16, payload []byte) []byte {
	headerLen := chainHeaderLen + 2*len(stages)
	b := make([]byte, 0, lenPrefix+headerLen+len(payload))
	b = binary.BigEndian.AppendUint32(b, uint32(headerLen+len(payload)))
	b = binary.BigEndian.AppendUint16(b, Magic)
	b = append(b, Version, TypeChain)
	b = binary.BigEndian.AppendUint64(b, 1) // id
	b = append(b, byte(nstages))
	b = binary.BigEndian.AppendUint64(b, 0) // deadline
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	for _, fn := range stages {
		b = binary.BigEndian.AppendUint16(b, fn)
	}
	return append(b, payload...)
}

func TestChainRoundTrip(t *testing.T) {
	for _, req := range []*Request{
		{ID: 1, Fn: 3, Next: []uint16{4}, Deadline: time.Second, Payload: []byte("hello")},
		{ID: 1<<64 - 1, Fn: 1, Next: []uint16{2, 3, 4, 5, 6, 7, 8}, Payload: []byte{}},
		{ID: 7, Fn: 9, Next: []uint16{10}, Payload: []byte("traced"),
			Trace: TraceContext{TraceID: 0xFEED, SpanID: 0x1001, Flags: FlagSampled}},
	} {
		b := AppendRequest(nil, req)
		if b[lenPrefix+3] != TypeChain {
			t.Fatalf("%d-stage request encoded as frame type %d", 1+len(req.Next), b[lenPrefix+3])
		}
		got, n, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(b) {
			t.Fatalf("consumed %d of %d", n, len(b))
		}
		if got.ID != req.ID || got.Deadline != req.Deadline || got.Trace != req.Trace {
			t.Fatalf("fields differ: %+v vs %+v", got, req)
		}
		if got.Fn != req.Fn || !slices.Equal(got.Next, req.Next) {
			t.Fatalf("stage list differs: %d %v vs %d %v", got.Fn, got.Next, req.Fn, req.Next)
		}
		if !bytes.Equal(got.Payload, req.Payload) {
			t.Fatalf("payload differs")
		}
	}
}

// TestChainRejections pins the decoder's strictness: every non-canonical
// chain shape is refused with the right sentinel.
func TestChainRejections(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty chain", chainFrame(0, nil, []byte("p")), ErrBadChain},
		{"one stage", chainFrame(1, []uint16{5}, []byte("p")), ErrBadChain},
		{"oversized stage list", chainFrame(MaxChainStages+1, make([]uint16, MaxChainStages+1), []byte("p")), ErrBadChain},
		// Long enough that the body passes the minimum-length check and
		// the type byte is what rejects it.
		{"response frame", AppendResponse(nil, &Response{ID: 9, Payload: bytes.Repeat([]byte{'x'}, 32)}), ErrBadType},
		{"truncated stage list", AppendRequest(nil, &Request{ID: 4, Fn: 1, Next: []uint16{2, 3},
			Payload: []byte("abc")})[:lenPrefix+chainHeaderLen+2], ErrTruncated},
	}
	for _, tc := range cases {
		if _, _, err := DecodeRequest(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Length-mismatch inside the chain header.
	bad := chainFrame(2, []uint16{1, 2}, []byte("abc"))
	binary.BigEndian.PutUint32(bad[lenPrefix+21:], 99)
	if _, _, err := DecodeRequest(bad); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("length mismatch: got %v", err)
	}
	// Non-canonical trace context: zero trace id under VersionTraced.
	tr := chainFrame(2, []uint16{1, 2}, []byte("p"))
	// Rebuild as traced with a zero trace id.
	traced := make([]byte, 0, len(tr)+TraceContextLen)
	headerLen := chainHeaderLen + TraceContextLen + 4
	traced = binary.BigEndian.AppendUint32(traced, uint32(headerLen+1))
	traced = binary.BigEndian.AppendUint16(traced, Magic)
	traced = append(traced, VersionTraced, TypeChain)
	traced = binary.BigEndian.AppendUint64(traced, 1)
	traced = append(traced, 2)
	traced = binary.BigEndian.AppendUint64(traced, 0)
	traced = binary.BigEndian.AppendUint32(traced, 1)
	traced = binary.BigEndian.AppendUint64(traced, 0) // zero trace id
	traced = binary.BigEndian.AppendUint64(traced, 9)
	traced = append(traced, FlagSampled)
	traced = binary.BigEndian.AppendUint16(traced, 1)
	traced = binary.BigEndian.AppendUint16(traced, 2)
	traced = append(traced, 'p')
	if _, _, err := DecodeRequest(traced); !errors.Is(err, ErrBadTraceContext) {
		t.Errorf("zero trace id: got %v", err)
	}
	// The writer refuses a stage list the card could not latch, before a
	// byte reaches the stream.
	var w bytes.Buffer
	long := &Request{ID: 1, Fn: 1, Next: make([]uint16, MaxChainStages), Payload: []byte("p")}
	if err := WriteRequest(&w, long); !errors.Is(err, ErrBadChain) || w.Len() != 0 {
		t.Errorf("%d-stage write: err %v, %d bytes written", 1+len(long.Next), err, w.Len())
	}
}
