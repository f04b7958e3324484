package trace

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed request tracing. A Tracer assembles Spans into per-request
// Traces: the client opens a root span per Call (attempts as children),
// the context crosses the wire (internal/wire TraceContext), the server
// joins the trace on admission, and the cluster/card layers attach
// queue-wait, service and per-phase spans. Two clocks coexist: StartNS /
// DurNS are wall time (a request's real latency, which is what a trace
// is for), while VirtPS carries the simulator's virtual phase durations
// so a span tree still shows the paper's cost attribution. The tracer
// is strictly an observer — it records virtual durations already
// computed and never moves virtual time (TestTracingNoVirtualTime
// proves the property end to end).
//
// Sampling is two-sided: heads (a probabilistic decision when the root
// span opens; sampled-out requests carry no context and cost nothing on
// the wire) and tails (completed traces flow to a collector goroutine
// that always retains the slowest-N and every errored trace in ring
// buffers, plus a short recent ring). A nil *Tracer is a valid no-op,
// and every operation on the zero SpanRef is a no-op without
// allocating, which is what keeps the sampled-out request path at
// 0 allocs/op.

// SpanRef names one live span in one trace. The zero SpanRef means
// "not sampled": every Tracer method accepts it and does nothing.
type SpanRef struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the ref names a sampled trace.
func (r SpanRef) Valid() bool { return r.TraceID != 0 }

// Span is one timed operation within a trace. Wall-clock spans carry
// StartNS/DurNS (unix nanoseconds / nanoseconds); virtual spans — the
// card's per-phase records — carry VirtPS picoseconds instead and are
// laid end to end under their parent when rendered. Remote marks a
// placeholder for a span owned by the peer process (the client attempt
// a server only knows by id).
type Span struct {
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent_id,omitempty"`
	Name    string `json:"name"`
	Layer   string `json:"layer"` // client | server | cluster | card | host
	Fn      uint16 `json:"fn,omitempty"`
	Card    int    `json:"card,omitempty"`
	Remote  bool   `json:"remote,omitempty"`
	Note    string `json:"note,omitempty"`
	Status  string `json:"status,omitempty"` // "" or "ok" = success
	StartNS int64  `json:"start_ns,omitempty"`
	DurNS   int64  `json:"dur_ns,omitempty"`
	VirtPS  uint64 `json:"virt_ps,omitempty"`
}

// Trace is one request's completed span tree.
type Trace struct {
	TraceID uint64 `json:"trace_id"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Err     bool   `json:"err,omitempty"`
	Spans   []Span `json:"spans"`
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Sample is the head-sampling probability in [0, 1]: the chance a
	// new root span is recorded. 0 disables tracing at the source; 1
	// records everything.
	Sample float64
	// TailN bounds the slowest-N ring: the traces with the largest
	// wall duration seen so far are always retained, regardless of how
	// few the head sampler kept. Default 16.
	TailN int
	// ErrorN bounds the errored-trace ring. Default 32.
	ErrorN int
	// RecentN bounds the most-recently-completed ring. Default 64.
	RecentN int
	// Seed fixes id generation and sampling decisions for tests; 0
	// seeds from the wall clock.
	Seed uint64
}

// maxActive bounds in-flight traces so a peer that never completes
// spans cannot grow the tracer without bound; past it, new roots are
// dropped (counted).
const maxActive = 4096

// Tracer creates spans, assembles them into traces, and hands completed
// traces to a collector goroutine that maintains the capture rings. A
// nil *Tracer records nothing.
type Tracer struct {
	opts      TracerOptions
	threshold uint64 // sample iff rand>>1 < threshold; ^0 = always
	rng       atomic.Uint64
	idCtr     atomic.Uint64
	idSeed    uint64

	mu     sync.Mutex
	active map[uint64]*activeTrace
	closed bool
	ch     chan *Trace
	done   chan struct{}

	ringsMu   sync.Mutex
	tail      []*Trace
	errs      []*Trace
	errsPos   int
	recent    []*Trace
	recentPos int

	completed     atomic.Uint64
	droppedFull   atomic.Uint64 // collector channel full
	droppedActive atomic.Uint64 // maxActive reached
}

// activeTrace is a trace still being assembled. completer is the span
// whose End finalizes the trace: the root span locally, or the first
// joined span when the root lives in a remote process.
type activeTrace struct {
	tr        *Trace
	completer uint64
}

// NewTracer starts a tracer and its collector goroutine; Close stops
// it and drains pending completions into the rings.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.TailN <= 0 {
		opts.TailN = 16
	}
	if opts.ErrorN <= 0 {
		opts.ErrorN = 32
	}
	if opts.RecentN <= 0 {
		opts.RecentN = 64
	}
	seed := opts.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) //lint:wallclock tracer ids and sampling need per-process entropy; virtual time is untouched
	}
	t := &Tracer{
		opts:   opts,
		idSeed: seed,
		active: make(map[uint64]*activeTrace),
		ch:     make(chan *Trace, 256),
		done:   make(chan struct{}),
	}
	switch {
	case opts.Sample >= 1:
		t.threshold = ^uint64(0)
	case opts.Sample > 0:
		t.threshold = uint64(opts.Sample * (1 << 63))
	}
	t.rng.Store(seed)
	go t.run()
	return t
}

// nowNS reads the wall clock for span timestamps.
func nowNS() int64 {
	return time.Now().UnixNano() //lint:wallclock spans measure real request latency; virtual durations ride Span.VirtPS
}

// splitmix64 is the id/sampling mixer: deterministic under Seed,
// well-distributed, and lock-free off an atomic counter.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// nextID yields a process-unique non-zero id.
func (t *Tracer) nextID() uint64 {
	id := splitmix64(t.idSeed + t.idCtr.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// sampleNext rolls the head-sampling decision.
func (t *Tracer) sampleNext() bool {
	switch t.threshold {
	case 0:
		return false
	case ^uint64(0):
		return true
	}
	return splitmix64(t.rng.Add(1))>>1 < t.threshold
}

// StartRoot opens a new trace if the head sampler elects it, returning
// the root span's ref (zero when sampled out). Ending the root
// finalizes the trace.
func (t *Tracer) StartRoot(name, layer string, fn uint16) SpanRef {
	if t == nil || !t.sampleNext() {
		return SpanRef{}
	}
	traceID, spanID := t.nextID(), t.nextID()
	start := nowNS()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || len(t.active) >= maxActive {
		t.droppedActive.Add(1)
		return SpanRef{}
	}
	tr := &Trace{TraceID: traceID, StartNS: start,
		Spans: []Span{{SpanID: spanID, Name: name, Layer: layer, Fn: fn, StartNS: start}}}
	t.active[traceID] = &activeTrace{tr: tr, completer: spanID}
	return SpanRef{TraceID: traceID, SpanID: spanID}
}

// StartRemote joins a trace whose root lives in another process: the
// wire context supplies the trace id, the caller-side parent span id,
// and the originator's sampling decision (which is honoured, never
// re-rolled — that is what makes sampling coherent across a fleet).
// If the trace is unknown locally, a remote placeholder span is
// recorded for the parent and the new span becomes the trace's local
// completer.
func (t *Tracer) StartRemote(traceID, parentSpanID uint64, sampled bool, name, layer string, fn uint16) SpanRef {
	if t == nil || traceID == 0 || !sampled {
		return SpanRef{}
	}
	spanID := t.nextID()
	start := nowNS()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return SpanRef{}
	}
	at := t.active[traceID]
	if at == nil {
		if len(t.active) >= maxActive {
			t.droppedActive.Add(1)
			return SpanRef{}
		}
		tr := &Trace{TraceID: traceID, StartNS: start}
		if parentSpanID != 0 {
			tr.Spans = append(tr.Spans, Span{SpanID: parentSpanID, Name: "attempt",
				Layer: "client", Fn: fn, Remote: true, StartNS: start})
		}
		at = &activeTrace{tr: tr, completer: spanID}
		t.active[traceID] = at
	}
	at.tr.Spans = append(at.tr.Spans, Span{SpanID: spanID, Parent: parentSpanID,
		Name: name, Layer: layer, Fn: fn, StartNS: start})
	return SpanRef{TraceID: traceID, SpanID: spanID}
}

// StartChild opens a child span under parent. The zero parent yields
// the zero ref: sampled-out traces stay free.
func (t *Tracer) StartChild(parent SpanRef, name, layer string, fn uint16) SpanRef {
	if t == nil || !parent.Valid() {
		return SpanRef{}
	}
	spanID := t.nextID()
	start := nowNS()
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.active[parent.TraceID]
	if at == nil {
		return SpanRef{}
	}
	at.tr.Spans = append(at.tr.Spans, Span{SpanID: spanID, Parent: parent.SpanID,
		Name: name, Layer: layer, Fn: fn, StartNS: start})
	return SpanRef{TraceID: parent.TraceID, SpanID: spanID}
}

// Add records an already-timed span under parent — the shape the
// server uses for the queue-wait/service split it derives from the
// cluster's timestamps, and for the card's virtual phase spans. The
// SpanID and Parent fields of s are assigned by the tracer; the
// returned ref lets callers hang further children off the new span.
func (t *Tracer) Add(parent SpanRef, s Span) SpanRef {
	if t == nil || !parent.Valid() {
		return SpanRef{}
	}
	s.SpanID = t.nextID()
	s.Parent = parent.SpanID
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.active[parent.TraceID]
	if at == nil {
		return SpanRef{}
	}
	if s.Status != "" && s.Status != "ok" {
		at.tr.Err = true
	}
	at.tr.Spans = append(at.tr.Spans, s)
	return SpanRef{TraceID: parent.TraceID, SpanID: s.SpanID}
}

// End closes the span: its duration is stamped and, if the span is the
// trace's completer, the finished trace is handed to the collector. A
// status other than "" or "ok" marks the whole trace errored (which
// pins it in the error ring).
func (t *Tracer) End(ref SpanRef, status string) {
	if t == nil || !ref.Valid() {
		return
	}
	end := nowNS()
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.active[ref.TraceID]
	if at == nil {
		return
	}
	for i := range at.tr.Spans {
		if at.tr.Spans[i].SpanID == ref.SpanID {
			sp := &at.tr.Spans[i]
			sp.DurNS = end - sp.StartNS
			sp.Status = status
			if status != "" && status != "ok" {
				at.tr.Err = true
			}
			break
		}
	}
	if ref.SpanID != at.completer {
		return
	}
	delete(t.active, ref.TraceID)
	at.tr.DurNS = end - at.tr.StartNS
	if t.closed {
		// The collector is gone; file the trace synchronously so
		// nothing completed is ever lost to shutdown ordering.
		t.collect(at.tr)
		return
	}
	select {
	case t.ch <- at.tr:
	default:
		t.droppedFull.Add(1)
	}
}

// run is the collector goroutine: it drains completed traces into the
// capture rings until Close.
func (t *Tracer) run() {
	defer close(t.done)
	for tr := range t.ch {
		t.collect(tr)
	}
}

// collect files one completed trace: always into the recent ring,
// into the error ring when errored, and into the slowest-N tail ring
// when it beats the current minimum.
func (t *Tracer) collect(tr *Trace) {
	t.completed.Add(1)
	t.ringsMu.Lock()
	defer t.ringsMu.Unlock()
	if len(t.recent) < t.opts.RecentN {
		t.recent = append(t.recent, tr)
	} else {
		t.recent[t.recentPos] = tr
		t.recentPos = (t.recentPos + 1) % t.opts.RecentN
	}
	if tr.Err {
		if len(t.errs) < t.opts.ErrorN {
			t.errs = append(t.errs, tr)
		} else {
			t.errs[t.errsPos] = tr
			t.errsPos = (t.errsPos + 1) % t.opts.ErrorN
		}
	}
	if len(t.tail) < t.opts.TailN {
		t.tail = append(t.tail, tr)
		return
	}
	min := 0
	for i := 1; i < len(t.tail); i++ {
		if t.tail[i].DurNS < t.tail[min].DurNS {
			min = i
		}
	}
	if tr.DurNS > t.tail[min].DurNS {
		t.tail[min] = tr
	}
}

// Close stops the collector after draining every already-completed
// trace into the rings. Traces still active keep accumulating spans
// and are filed synchronously when their completer ends. Close is
// idempotent.
func (t *Tracer) Close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		<-t.done
		return
	}
	t.closed = true
	close(t.ch)
	t.mu.Unlock()
	<-t.done
}

// Captured snapshots the capture rings: the union of tail, error and
// recent traces (deduplicated), slowest first. The returned traces are
// complete and immutable; the slice is the caller's.
func (t *Tracer) Captured() []*Trace {
	if t == nil {
		return nil
	}
	t.ringsMu.Lock()
	seen := make(map[uint64]bool, len(t.tail)+len(t.errs)+len(t.recent))
	var out []*Trace
	for _, ring := range [][]*Trace{t.tail, t.errs, t.recent} {
		for _, tr := range ring {
			if !seen[tr.TraceID] {
				seen[tr.TraceID] = true
				out = append(out, tr)
			}
		}
	}
	t.ringsMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurNS != out[j].DurNS {
			return out[i].DurNS > out[j].DurNS
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// Completed counts traces the collector has filed.
func (t *Tracer) Completed() uint64 {
	if t == nil {
		return 0
	}
	return t.completed.Load()
}

// Dropped counts traces lost to backpressure (collector channel full)
// or to the maxActive bound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.droppedFull.Load() + t.droppedActive.Load()
}

// Active counts traces still being assembled.
func (t *Tracer) Active() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}

// debugTraces is the /debug/traces JSON document.
type debugTraces struct {
	Sample    float64  `json:"sample"`
	Completed uint64   `json:"completed"`
	Dropped   uint64   `json:"dropped"`
	Active    int      `json:"active"`
	Traces    []*Trace `json:"traces"`
}

// WriteJSON dumps the captured traces (tail ∪ errors ∪ recent, slowest
// first) with collector counters as a single JSON document.
func (t *Tracer) WriteJSON(w http.ResponseWriter) error {
	w.Header().Set("Content-Type", "application/json")
	doc := debugTraces{Traces: []*Trace{}}
	if t != nil {
		doc.Sample = t.opts.Sample
		doc.Completed = t.Completed()
		doc.Dropped = t.Dropped()
		doc.Active = t.Active()
		if traces := t.Captured(); traces != nil {
			doc.Traces = traces
		}
	}
	return json.NewEncoder(w).Encode(&doc)
}

// Handler serves the captured traces: JSON by default, Chrome
// trace-event format with ?format=chrome (load in chrome://tracing or
// Perfetto for request-centric lanes). Safe on a nil Tracer, which
// serves an empty document.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			_ = WriteChromeSpans(w, t.Captured())
			return
		}
		_ = t.WriteJSON(w)
	})
}
