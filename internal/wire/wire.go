// Package wire defines the co-processor's network framing: a
// length-prefixed binary protocol carrying versioned request and
// response frames over any byte stream (agilenetd speaks it over TCP).
//
// Every frame is
//
//	uint32  frame length (bytes that follow, big-endian)
//	uint16  magic 0xA61E
//	uint8   protocol version (1)
//	uint8   frame type (1 = request, 2 = response, 3 = chain)
//	...     type-specific header
//	[]byte  payload
//
// A request header carries the request id (client-chosen, echoed back),
// the function id, a relative deadline in nanoseconds (0 = none — sent
// relative rather than absolute so client and server clocks never need
// agreement), and an explicit payload length that must agree with the
// frame length, giving decoders a cheap consistency cross-check. A
// response header carries the echoed id, a status code, the serving
// card (-1 when no card was reached), and the payload length; the
// payload is the function output on StatusOK and a human-readable
// diagnostic otherwise.
//
// A request whose stage list has more than one stage (DESIGN §15) asks
// the server to run the whole list as one on-card dataflow chain,
// shipping the input once and collecting only the final output. It
// travels as a chain frame, whose type-specific header is
//
//	uint64   request id
//	uint8    stage count (2..MaxChainStages)
//	uint64   relative deadline (ns, 0 = none)
//	uint32   payload length
//	[17]byte trace context (VersionTraced only)
//	[]uint16 stage function ids (big-endian, stage-count entries)
//
// A peer that only understands TypeRequest rejects a chain frame with
// ErrBadType and answers nothing it would misinterpret. The answer to
// either request frame is an ordinary response frame.
//
// Trace context is version-gated: a request carrying distributed-trace
// context (trace id, parent span id, flag bits) is encoded as a
// VersionTraced frame whose header grows by TraceContextLen bytes
// between the payload-length field and the payload (or the stage
// list); a request without context encodes as the original Version
// frame, byte-identical to pre-trace builds, so old peers interoperate
// as long as tracing is off or sampled out. Decoders accept both
// versions but are strict about canonical form: a VersionTraced frame
// whose context would never have been emitted (zero trace id, unknown
// flag bits) is rejected with ErrBadTraceContext.
//
// Decoding is strict: bad magic, unknown version, wrong frame type,
// oversized frames, length mismatches and stage counts outside
// [2, MaxChainStages] are each rejected with a distinct sentinel error,
// and a successful decode re-encodes to the identical bytes (the
// canonical-form property the fuzz target checks).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Framing constants.
const (
	Magic   = 0xA61E
	Version = 1

	// VersionTraced marks a request frame whose header carries trace
	// context. Responses are never traced on the wire (the reply rides
	// the request's span), so VersionTraced is a request-only version.
	VersionTraced = 2

	TypeRequest  = 1
	TypeResponse = 2
	TypeChain    = 3

	// MaxPayload bounds a frame's payload; anything larger is rejected
	// before allocation, so a hostile length prefix cannot balloon
	// memory.
	MaxPayload = 16 << 20

	// MaxChainStages bounds a request's stage list. It mirrors
	// mcu.MaxChainStages (wire cannot import mcu), so any frame that
	// decodes names a chain the card could execute.
	MaxChainStages = 8

	// TraceContextLen is the size of the trace-context header
	// extension a VersionTraced request carries: trace id (8), parent
	// span id (8), flags (1).
	TraceContextLen = 8 + 8 + 1

	// FlagSampled marks a trace the originator decided to record; a
	// server joins the trace rather than re-rolling its own sampling
	// decision. It is the only flag bit defined; decoders reject the
	// rest so the canonical-form property survives the extension.
	FlagSampled = 0x01

	traceFlagsMask = FlagSampled

	// lenPrefix is the length-prefix size; the header sizes count the
	// bytes between the prefix and the payload.
	lenPrefix           = 4
	requestHeaderLen    = 2 + 1 + 1 + 8 + 2 + 8 + 4 // magic ver type id fn deadline paylen
	chainHeaderLen      = 2 + 1 + 1 + 8 + 1 + 8 + 4 // magic ver type id nstages deadline paylen
	maxRequestHeaderLen = chainHeaderLen + TraceContextLen + 2*MaxChainStages
	responseHeaderLen   = 2 + 1 + 1 + 8 + 1 + 2 + 4 // magic ver type id status card paylen
)

// Decode errors.
var (
	ErrTruncated      = errors.New("wire: truncated frame")
	ErrOversized      = errors.New("wire: frame exceeds MaxPayload")
	ErrBadMagic       = errors.New("wire: bad magic")
	ErrBadVersion     = errors.New("wire: unsupported version")
	ErrBadType        = errors.New("wire: unexpected frame type")
	ErrLengthMismatch = errors.New("wire: frame/payload length mismatch")
	ErrBadDeadline    = errors.New("wire: deadline overflows int64 nanoseconds")
	// ErrBadTraceContext rejects a VersionTraced frame whose context is
	// not canonical: a zero trace id (the encoder would have emitted a
	// Version frame) or undefined flag bits.
	ErrBadTraceContext = errors.New("wire: malformed trace context")
	// ErrBadChain rejects a chain frame whose stage count is outside
	// [2, MaxChainStages] — an empty, one-stage or oversized stage list,
	// none of which a canonical encoder emits — and a Request with more
	// than MaxChainStages stages at WriteRequest.
	ErrBadChain = errors.New("wire: chain stage count out of range")
)

// Status codes a response can carry.
type Status uint8

const (
	StatusOK                Status = 0
	StatusInvalidArgument   Status = 1
	StatusNotFound          Status = 2
	StatusResourceExhausted Status = 3
	StatusDeadlineExceeded  Status = 4
	StatusUnavailable       Status = 5
	StatusInternal          Status = 6
)

// String names the status for logs and metrics labels.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusInvalidArgument:
		return "invalid_argument"
	case StatusNotFound:
		return "not_found"
	case StatusResourceExhausted:
		return "resource_exhausted"
	case StatusDeadlineExceeded:
		return "deadline_exceeded"
	case StatusUnavailable:
		return "unavailable"
	case StatusInternal:
		return "internal"
	default:
		return fmt.Sprintf("status_%d", uint8(s))
	}
}

// Retryable reports whether a client may safely retry after this
// status: overload (RESOURCE_EXHAUSTED) and draining (UNAVAILABLE) are
// transient by construction; everything else would fail identically.
func (s Status) Retryable() bool {
	return s == StatusResourceExhausted || s == StatusUnavailable
}

// TraceContext is the distributed-trace context a request can carry
// across the wire: the trace the call belongs to, the caller-side span
// that is this request's parent (the client's per-attempt span), and
// flag bits (FlagSampled). The zero TraceContext means "no context"
// and encodes as a plain Version frame.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Flags   uint8
}

// Valid reports whether the context carries a trace. A zero trace id
// is reserved as the absent value, mirroring W3C traceparent.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// Sampled reports whether the originator decided to record this trace.
func (tc TraceContext) Sampled() bool { return tc.Flags&FlagSampled != 0 }

// Request is one call: run the stage list — function Fn, then each of
// Next in order — over Payload, answering under Deadline (a relative
// budget; 0 = no deadline). Next is empty for a plain call; a longer
// stage list runs as one on-card dataflow chain and travels as a
// TypeChain frame. ID is chosen by the client and echoed in the
// response so a connection can pipeline. Trace, when Valid, propagates
// the caller's trace context (version-gating the frame to
// VersionTraced).
type Request struct {
	ID       uint64
	Fn       uint16
	Next     []uint16
	Deadline time.Duration
	Payload  []byte
	Trace    TraceContext
}

// Response answers one request. Card is the serving card index, -1 when
// the request never reached a card. Payload holds the function output
// on StatusOK and a diagnostic message otherwise.
type Response struct {
	ID      uint64
	Status  Status
	Card    int16
	Payload []byte
}

// bufPool recycles frame buffers across the encode (WriteRequest /
// WriteResponse) and read (readFrame) hot paths. The copying decoders
// free a buffer the moment its frame has been decoded or written; the
// zero-copy readers hand the buffer out as a Frame whose payload stays
// aliased until the caller Releases it. The pool stores *[]byte to
// keep the slice header off the heap on every Put.
var bufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getBuf fetches a pooled buffer with at least n bytes of capacity,
// sliced to zero length.
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	*bp = (*bp)[:0]
	return bp
}

// putBuf returns a buffer to the pool. Oversized buffers are dropped so
// one MaxPayload frame cannot pin 16 MiB for the process lifetime.
func putBuf(bp *[]byte) {
	if cap(*bp) <= 1<<20 {
		bufPool.Put(bp)
	}
}

// AppendRequest appends req's canonical encoding to dst: a TypeRequest
// frame for a plain call, a TypeChain frame when req.Next is non-empty;
// a Version frame when req.Trace is absent, a VersionTraced frame
// carrying the context otherwise.
func AppendRequest(dst []byte, req *Request) []byte {
	chain := len(req.Next) > 0
	headerLen, version, typ := requestHeaderLen, byte(Version), byte(TypeRequest)
	if chain {
		headerLen, typ = chainHeaderLen+2*(1+len(req.Next)), TypeChain
	}
	if req.Trace.Valid() {
		headerLen, version = headerLen+TraceContextLen, VersionTraced
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(headerLen+len(req.Payload)))
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, version, typ)
	dst = binary.BigEndian.AppendUint64(dst, req.ID)
	if chain {
		dst = append(dst, byte(1+len(req.Next)))
	} else {
		dst = binary.BigEndian.AppendUint16(dst, req.Fn)
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(max(req.Deadline, 0).Nanoseconds()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(req.Payload)))
	if req.Trace.Valid() {
		dst = binary.BigEndian.AppendUint64(dst, req.Trace.TraceID)
		dst = binary.BigEndian.AppendUint64(dst, req.Trace.SpanID)
		dst = append(dst, req.Trace.Flags&traceFlagsMask)
	}
	if chain {
		dst = binary.BigEndian.AppendUint16(dst, req.Fn)
		for _, fn := range req.Next {
			dst = binary.BigEndian.AppendUint16(dst, fn)
		}
	}
	return append(dst, req.Payload...)
}

// AppendResponse appends resp's canonical encoding to dst.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(responseHeaderLen+len(resp.Payload)))
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, TypeResponse)
	dst = binary.BigEndian.AppendUint64(dst, resp.ID)
	dst = append(dst, byte(resp.Status))
	dst = binary.BigEndian.AppendUint16(dst, uint16(resp.Card))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Payload)))
	return append(dst, resp.Payload...)
}

// checkFrame validates the length prefix, magic and version every
// frame starts with, returning the frame body (everything after the
// prefix) and whether the frame is VersionTraced. minLen is the
// shortest body and maxHeader the longest header the caller's frame
// types carry. Only a traceable frame type (a request) may be
// VersionTraced; for responses it is an unknown version like any other.
// The caller checks the type byte.
func checkFrame(b []byte, minLen, maxHeader int, traceable bool) ([]byte, bool, error) {
	if len(b) < lenPrefix {
		return nil, false, ErrTruncated
	}
	frameLen := int(binary.BigEndian.Uint32(b))
	if frameLen > maxHeader+MaxPayload {
		return nil, false, ErrOversized
	}
	if frameLen < minLen || len(b)-lenPrefix < frameLen {
		return nil, false, ErrTruncated
	}
	body := b[lenPrefix : lenPrefix+frameLen]
	if binary.BigEndian.Uint16(body) != Magic {
		return nil, false, ErrBadMagic
	}
	switch {
	case body[2] == Version:
		return body, false, nil
	case body[2] == VersionTraced && traceable:
		return body, true, nil
	}
	return nil, false, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, body[2], Version)
}

// DecodeRequestInto decodes one request frame — TypeRequest or
// TypeChain — from the front of b into *req without copying:
// req.Payload aliases b, so the frame buffer must outlive every use of
// the payload (req.Next is decoded into req's own slice, reusing its
// capacity). It returns the bytes consumed. An incomplete buffer yields
// ErrTruncated, so stream decoders can read more and retry.
func DecodeRequestInto(req *Request, b []byte) (int, error) {
	body, traced, err := checkFrame(b, chainHeaderLen, maxRequestHeaderLen, true)
	if err != nil {
		return 0, err
	}
	// dl is where the deadline field starts: after a plain call's
	// function id, or after a chain's stage count. The payload length
	// follows it, then the trace context (if traced), then a chain's
	// stage list.
	chain, nstages, dl := body[3] == TypeChain, 1, 14
	switch {
	case chain:
		nstages, dl = int(body[12]), 13
		if nstages < 2 || nstages > MaxChainStages {
			return 0, fmt.Errorf("%w: %d stages", ErrBadChain, nstages)
		}
	case body[3] != TypeRequest:
		return 0, fmt.Errorf("%w: got %d, want %d or %d", ErrBadType, body[3], TypeRequest, TypeChain)
	}
	ctxAt := dl + 8 + 4
	stagesAt := ctxAt
	if traced {
		stagesAt += TraceContextLen
	}
	headerLen := stagesAt
	if chain {
		headerLen += 2 * nstages
	}
	if len(body) < headerLen {
		return 0, ErrTruncated
	}
	payLen := int(binary.BigEndian.Uint32(body[dl+8 : ctxAt]))
	if payLen != len(body)-headerLen {
		return 0, fmt.Errorf("%w: header says %d, frame carries %d",
			ErrLengthMismatch, payLen, len(body)-headerLen)
	}
	if payLen > MaxPayload {
		return 0, ErrOversized
	}
	dlNs := binary.BigEndian.Uint64(body[dl : dl+8])
	if dlNs > math.MaxInt64 {
		return 0, ErrBadDeadline
	}
	req.Trace = TraceContext{}
	if traced {
		req.Trace.TraceID = binary.BigEndian.Uint64(body[ctxAt:])
		req.Trace.SpanID = binary.BigEndian.Uint64(body[ctxAt+8:])
		req.Trace.Flags = body[ctxAt+16]
		if !req.Trace.Valid() || req.Trace.Flags&^uint8(traceFlagsMask) != 0 {
			return 0, ErrBadTraceContext
		}
	}
	req.ID = binary.BigEndian.Uint64(body[4:12])
	req.Next = req.Next[:0]
	if chain {
		req.Fn = binary.BigEndian.Uint16(body[stagesAt:])
		for i := 1; i < nstages; i++ {
			req.Next = append(req.Next, binary.BigEndian.Uint16(body[stagesAt+2*i:]))
		}
	} else {
		req.Fn = binary.BigEndian.Uint16(body[12:14])
	}
	req.Deadline = time.Duration(dlNs)
	req.Payload = body[headerLen:]
	return lenPrefix + len(body), nil
}

// DecodeResponseInto decodes one response frame from the front of b
// into *resp without copying: resp.Payload aliases b. It returns the
// bytes consumed.
func DecodeResponseInto(resp *Response, b []byte) (int, error) {
	body, _, err := checkFrame(b, responseHeaderLen, responseHeaderLen, false)
	if err != nil {
		return 0, err
	}
	if body[3] != TypeResponse {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrBadType, body[3], TypeResponse)
	}
	payLen := int(binary.BigEndian.Uint32(body[15:19]))
	if payLen != len(body)-responseHeaderLen {
		return 0, fmt.Errorf("%w: header says %d, frame carries %d",
			ErrLengthMismatch, payLen, len(body)-responseHeaderLen)
	}
	resp.ID = binary.BigEndian.Uint64(body[4:12])
	resp.Status = Status(body[12])
	resp.Card = int16(binary.BigEndian.Uint16(body[13:15]))
	resp.Payload = body[responseHeaderLen:]
	return lenPrefix + len(body), nil
}

// DecodeResponse decodes one response frame from the front of b,
// returning the bytes consumed. The payload is copied out of b (the
// zero-copy variant is DecodeResponseInto).
func DecodeResponse(b []byte) (*Response, int, error) {
	var resp Response
	n, err := DecodeResponseInto(&resp, b)
	if err != nil {
		return nil, 0, err
	}
	resp.Payload = append([]byte(nil), resp.Payload...)
	return &resp, n, nil
}

// WriteRequest writes req to w as a single Write call, so a net.Conn
// needs no extra buffering to avoid torn frames. A stage list longer
// than MaxChainStages is refused with ErrBadChain before anything is
// written.
func WriteRequest(w io.Writer, req *Request) error {
	if len(req.Payload) > MaxPayload {
		return ErrOversized
	}
	if len(req.Next) >= MaxChainStages {
		return fmt.Errorf("%w: %d stages", ErrBadChain, 1+len(req.Next))
	}
	bp := getBuf(lenPrefix + maxRequestHeaderLen + len(req.Payload))
	*bp = AppendRequest(*bp, req)
	_, err := w.Write(*bp)
	putBuf(bp)
	return err
}

// WriteResponse writes resp to w as a single Write call.
func WriteResponse(w io.Writer, resp *Response) error {
	if len(resp.Payload) > MaxPayload {
		return ErrOversized
	}
	bp := getBuf(lenPrefix + responseHeaderLen + len(resp.Payload))
	*bp = AppendResponse(*bp, resp)
	_, err := w.Write(*bp)
	putBuf(bp)
	return err
}

// readFrame reads one length-prefixed frame from r into a pooled
// buffer. The length prefix is bounds-checked before the body is sized
// (maxHeaderLen is the largest header any accepted version carries).
// The caller must putBuf the returned buffer once the frame is decoded
// (both decoders copy the payload out, so recycling is safe).
func readFrame(r io.Reader, headerLen, maxHeaderLen int) (*[]byte, error) {
	// The prefix is read straight into the pooled buffer: a local
	// array would escape through the io.Reader interface and cost an
	// allocation per frame.
	bp := getBuf(lenPrefix)
	if _, err := io.ReadFull(r, (*bp)[:lenPrefix]); err != nil {
		putBuf(bp)
		return nil, err // io.EOF at a frame boundary = clean close
	}
	frameLen := int(binary.BigEndian.Uint32((*bp)[:lenPrefix]))
	if frameLen > maxHeaderLen+MaxPayload {
		putBuf(bp)
		return nil, ErrOversized
	}
	if frameLen < headerLen {
		putBuf(bp)
		return nil, ErrTruncated
	}
	total := lenPrefix + frameLen
	if cap(*bp) < total {
		grown := make([]byte, total)
		copy(grown, (*bp)[:lenPrefix])
		*bp = grown
	}
	buf := (*bp)[:total]
	*bp = buf
	if _, err := io.ReadFull(r, buf[lenPrefix:]); err != nil {
		putBuf(bp)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	return bp, nil
}

// Frame is a handle on a pooled frame buffer whose bytes a zero-copy
// decode still references. Release returns the buffer to the pool; the
// aliased payload must not be used afterwards. The zero Frame is valid
// and Release on it is a no-op, so error paths need no nil checks.
type Frame struct {
	bp *[]byte
}

// Release recycles the frame buffer. Call exactly once, after the last
// use of any payload that aliases it.
func (f Frame) Release() {
	if f.bp != nil {
		putBuf(f.bp)
	}
}

// ReadRequestFrame reads and decodes one request frame — plain or
// chain — from r into *req without copying the payload: req.Payload
// aliases the returned Frame's pooled buffer, which the caller must
// Release once the payload is no longer referenced (for a served
// request, after the response is written). This is the zero-allocation
// read path the serving front end (server and router) runs per request.
func ReadRequestFrame(r io.Reader, req *Request) (Frame, error) {
	bp, err := readFrame(r, chainHeaderLen, maxRequestHeaderLen)
	if err != nil {
		return Frame{}, err
	}
	if _, err := DecodeRequestInto(req, *bp); err != nil {
		putBuf(bp)
		return Frame{}, err
	}
	return Frame{bp: bp}, nil
}

// ReadResponseFrame is the response-side zero-copy read:
// resp.Payload aliases the returned Frame until Release.
func ReadResponseFrame(r io.Reader, resp *Response) (Frame, error) {
	bp, err := readFrame(r, responseHeaderLen, responseHeaderLen)
	if err != nil {
		return Frame{}, err
	}
	if _, err := DecodeResponseInto(resp, *bp); err != nil {
		putBuf(bp)
		return Frame{}, err
	}
	return Frame{bp: bp}, nil
}

// ReadResponse reads and decodes one response frame from r.
func ReadResponse(r io.Reader) (*Response, error) {
	bp, err := readFrame(r, responseHeaderLen, responseHeaderLen)
	if err != nil {
		return nil, err
	}
	resp, _, err := DecodeResponse(*bp)
	putBuf(bp)
	return resp, err
}
