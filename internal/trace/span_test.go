package trace

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"
)

// newTestTracer builds a deterministic always-sampling tracer.
func newTestTracer(opts TracerOptions) *Tracer {
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	return NewTracer(opts)
}

func TestTracerNilAndZeroRefNoOps(t *testing.T) {
	var tr *Tracer
	ref := tr.StartRoot("call", "client", 1)
	if ref.Valid() {
		t.Fatal("nil tracer produced a valid ref")
	}
	tr.End(ref, "ok")
	tr.Close()
	if tr.Captured() != nil || tr.Completed() != 0 || tr.Active() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer leaked state")
	}
	// Zero refs on a live tracer: every op is a no-op.
	live := newTestTracer(TracerOptions{Sample: 1})
	defer live.Close()
	if live.StartChild(SpanRef{}, "x", "client", 1).Valid() {
		t.Fatal("child of the zero ref must be the zero ref")
	}
	if live.Add(SpanRef{}, Span{Name: "x"}).Valid() {
		t.Fatal("Add under the zero ref must be a no-op")
	}
	live.End(SpanRef{}, "ok")
	if live.Active() != 0 {
		t.Fatal("zero-ref ops created active state")
	}
}

func TestTracerHeadSampling(t *testing.T) {
	never := newTestTracer(TracerOptions{Sample: 0})
	defer never.Close()
	for i := 0; i < 100; i++ {
		if never.StartRoot("call", "client", 1).Valid() {
			t.Fatal("Sample=0 produced a sampled trace")
		}
	}
	always := newTestTracer(TracerOptions{Sample: 1})
	defer always.Close()
	for i := 0; i < 100; i++ {
		ref := always.StartRoot("call", "client", 1)
		if !ref.Valid() {
			t.Fatal("Sample=1 produced an unsampled trace")
		}
		always.End(ref, "ok")
	}
	// A fractional rate lands strictly between the extremes and is
	// reproducible under a fixed seed.
	count := func(seed uint64) int {
		half := NewTracer(TracerOptions{Sample: 0.5, Seed: seed})
		defer half.Close()
		n := 0
		for i := 0; i < 1000; i++ {
			ref := half.StartRoot("call", "client", 1)
			if ref.Valid() {
				n++
				half.End(ref, "ok")
			}
		}
		return n
	}
	n1, n2 := count(7), count(7)
	if n1 != n2 {
		t.Fatalf("sampling not deterministic under a fixed seed: %d vs %d", n1, n2)
	}
	if n1 < 300 || n1 > 700 {
		t.Fatalf("Sample=0.5 kept %d of 1000", n1)
	}
}

func TestTracerSpanTree(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sample: 1})
	defer tr.Close()
	root := tr.StartRoot("call", "client", 7)
	attempt := tr.StartChild(root, "attempt", "client", 7)
	rpc := tr.StartRemote(attempt.TraceID, attempt.SpanID, true, "rpc", "server", 7)
	if rpc.TraceID != root.TraceID {
		t.Fatal("StartRemote on a locally-known trace must join it")
	}
	queue := tr.Add(rpc, Span{Name: "queue-wait", Layer: "cluster", StartNS: 100, DurNS: 40})
	if !queue.Valid() {
		t.Fatal("Add returned the zero ref for a live trace")
	}
	svc := tr.Add(rpc, Span{Name: "service", Layer: "cluster", Card: 2, StartNS: 140, DurNS: 60})
	phase := tr.Add(svc, Span{Name: "exec", Layer: "card", Card: 2, VirtPS: 500_000})
	if !phase.Valid() {
		t.Fatal("virtual phase span rejected")
	}
	tr.End(rpc, "ok")
	tr.End(attempt, "ok")
	if tr.Completed() != 0 {
		t.Fatal("trace completed before its root ended")
	}
	tr.End(root, "ok")
	tr.Close() // drain
	got := tr.Captured()
	if len(got) != 1 {
		t.Fatalf("captured %d traces, want 1", len(got))
	}
	spans := got[0].Spans
	if len(spans) != 6 {
		t.Fatalf("trace has %d spans, want 6: %+v", len(spans), spans)
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["attempt"].Parent != root.SpanID {
		t.Fatal("attempt is not a child of the root call span")
	}
	if byName["rpc"].Parent != attempt.SpanID {
		t.Fatal("rpc is not a child of the wire-propagated attempt span")
	}
	if byName["queue-wait"].Parent != byName["rpc"].SpanID || byName["service"].Parent != byName["rpc"].SpanID {
		t.Fatal("queue/service are not children of the rpc span")
	}
	if byName["exec"].Parent != byName["service"].SpanID {
		t.Fatal("phase span is not a child of the service span")
	}
	if byName["call"].DurNS <= 0 {
		t.Fatal("root span has no duration")
	}
	if got[0].Err {
		t.Fatal("all-ok trace marked errored")
	}
}

func TestTracerRemoteRoot(t *testing.T) {
	// A server-side tracer joining a trace whose root lives in the
	// client process: a placeholder records the remote parent, and the
	// joined span completes the local view.
	tr := newTestTracer(TracerOptions{Sample: 1})
	defer tr.Close()
	rpc := tr.StartRemote(0xABCD, 0x1234, true, "rpc", "server", 3)
	if !rpc.Valid() || rpc.TraceID != 0xABCD {
		t.Fatalf("remote join ref = %+v", rpc)
	}
	tr.End(rpc, "ok")
	tr.Close()
	got := tr.Captured()
	if len(got) != 1 || got[0].TraceID != 0xABCD {
		t.Fatalf("captured = %+v", got)
	}
	var remote, local int
	for _, s := range got[0].Spans {
		if s.Remote {
			remote++
			if s.SpanID != 0x1234 {
				t.Fatalf("placeholder span id = %#x, want the wire parent id", s.SpanID)
			}
		} else {
			local++
			if s.Parent != 0x1234 {
				t.Fatal("joined span must hang off the remote parent")
			}
		}
	}
	if remote != 1 || local != 1 {
		t.Fatalf("remote=%d local=%d spans, want 1 and 1", remote, local)
	}
	// An unsampled or absent context must not join anything.
	if tr.StartRemote(0xABCD, 0x1234, false, "rpc", "server", 3).Valid() {
		t.Fatal("unsampled context joined a trace")
	}
	if tr.StartRemote(0, 0x1234, true, "rpc", "server", 3).Valid() {
		t.Fatal("zero trace id joined a trace")
	}
}

func TestTracerTailKeepsSlowest(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sample: 1, TailN: 3})
	// Complete 20 traces with ascending synthetic durations by ending
	// roots in order; wall durations are monotonic with completion
	// order here because each trace i sleeps longer... instead, fake
	// durations via direct collect.
	for i := 1; i <= 20; i++ {
		tr.collect(&Trace{TraceID: uint64(i), DurNS: int64(i) * 1000})
	}
	tr.Close()
	tail := tr.Tail()
	if len(tail) != 3 {
		t.Fatalf("tail holds %d, want 3", len(tail))
	}
	for i, want := range []int64{20000, 19000, 18000} {
		if tail[i].DurNS != want {
			t.Fatalf("tail[%d].DurNS = %d, want %d (slowest-N not maintained)", i, tail[i].DurNS, want)
		}
	}
}

func TestTracerErrorRing(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sample: 1, TailN: 1, ErrorN: 4, RecentN: 1})
	// Errors must be pinned even when they are fast (evicted from both
	// the tail and recent rings).
	for i := 0; i < 8; i++ {
		ref := tr.StartRoot("call", "client", 1)
		status := "ok"
		if i%2 == 1 {
			status = "internal"
		}
		tr.End(ref, status)
	}
	tr.Close()
	errs := tr.Errored()
	if len(errs) != 4 {
		t.Fatalf("error ring holds %d, want 4", len(errs))
	}
	for _, e := range errs {
		if !e.Err {
			t.Fatal("non-errored trace in the error ring")
		}
	}
	if tr.Completed() != 8 {
		t.Fatalf("completed = %d, want 8", tr.Completed())
	}
}

// TestTracerCloseDrains is the shutdown-ordering property: every trace
// completed before Close must be visible in the rings after Close
// returns, even though collection is asynchronous — and completions
// racing past Close must be filed synchronously, never lost or panic.
func TestTracerCloseDrains(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sample: 1, TailN: 64, RecentN: 64})
	var late []SpanRef
	for i := 0; i < 50; i++ {
		ref := tr.StartRoot("call", "client", 1)
		if i < 40 {
			tr.End(ref, "ok")
		} else {
			late = append(late, ref)
		}
	}
	tr.Close()
	if got := tr.Completed(); got != 40 {
		t.Fatalf("after Close: completed = %d, want 40 (tail ring failed to drain)", got)
	}
	// Spans still in flight at Close complete synchronously.
	for _, ref := range late {
		tr.End(ref, "ok")
	}
	if got := tr.Completed(); got != 50 {
		t.Fatalf("post-Close completions lost: completed = %d, want 50", got)
	}
	if tr.Active() != 0 {
		t.Fatalf("active = %d after all completions", tr.Active())
	}
	tr.Close() // idempotent
	// New roots after Close are refused, not leaked into active state.
	if tr.StartRoot("call", "client", 1).Valid() {
		t.Fatal("StartRoot succeeded after Close")
	}
}

// TestTracerMaxActiveBound: the maxActive-th open root is the last one
// admitted; the next is dropped and counted until a trace completes.
func TestTracerMaxActiveBound(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sample: 1})
	defer tr.Close()
	refs := make([]SpanRef, 0, maxActive)
	for i := 0; i < maxActive; i++ {
		ref := tr.StartRoot("call", "client", 1)
		if !ref.Valid() {
			t.Fatalf("root %d of %d dropped", i+1, maxActive)
		}
		refs = append(refs, ref)
	}
	if tr.StartRoot("call", "client", 1).Valid() {
		t.Fatal("maxActive not enforced")
	}
	if tr.Dropped() == 0 {
		t.Fatal("drop not counted")
	}
	tr.End(refs[0], "ok")
	if !tr.StartRoot("call", "client", 1).Valid() {
		t.Fatal("slot not released after completion")
	}
}

func TestTracerHandlerJSONAndChrome(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sample: 1})
	root := tr.StartRoot("call", "client", 7)
	svc := tr.Add(root, Span{Name: "service", Layer: "cluster", Card: 1, StartNS: 10, DurNS: 20})
	tr.Add(svc, Span{Name: "exec", Layer: "card", Card: 1, VirtPS: 1_000_000})
	tr.End(root, "ok")
	tr.Close()

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var doc struct {
		Sample    float64 `json:"sample"`
		Completed uint64  `json:"completed"`
		Traces    []Trace `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("handler output not JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Completed != 1 || len(doc.Traces) != 1 || doc.Sample != 1 {
		t.Fatalf("handler doc = %+v", doc)
	}
	if len(doc.Traces[0].Spans) != 3 {
		t.Fatalf("handler trace spans = %d, want 3", len(doc.Traces[0].Spans))
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?format=chrome", nil))
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome output not JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export empty")
	}

	// A nil tracer serves an empty but well-formed document (the debug
	// surface stays up when tracing is off).
	var nilTr *Tracer
	rec = httptest.NewRecorder()
	nilTr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("nil handler output not JSON: %v", err)
	}
}

func TestTracerIDsUniqueAndNonZero(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sample: 1})
	defer tr.Close()
	seen := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		ref := tr.StartRoot("call", "client", 1)
		if ref.TraceID == 0 || ref.SpanID == 0 {
			t.Fatal("zero id issued")
		}
		if seen[ref.TraceID] || seen[ref.SpanID] {
			t.Fatalf("id collision at %d", i)
		}
		seen[ref.TraceID], seen[ref.SpanID] = true, true
		tr.End(ref, "ok")
	}
}

func TestTracerConcurrentCompletion(t *testing.T) {
	tr := newTestTracer(TracerOptions{Sample: 1, TailN: 8})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				ref := tr.StartRoot("call", "client", uint16(g))
				child := tr.StartChild(ref, "attempt", "client", uint16(g))
				tr.Add(child, Span{Name: "service", Layer: "cluster", StartNS: 1, DurNS: 2})
				tr.End(child, "ok")
				tr.End(ref, fmt.Sprintf("status-%d", g%2*3)) // alternate ok-ish statuses
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	tr.Close()
	if got := tr.Completed() + tr.Dropped(); got != 8*200 {
		t.Fatalf("completed+dropped = %d, want 1600", got)
	}
}

// Tail snapshots the slowest-N ring, slowest first.
func (t *Tracer) Tail() []*Trace {
	if t == nil {
		return nil
	}
	t.ringsMu.Lock()
	out := append([]*Trace(nil), t.tail...)
	t.ringsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].DurNS > out[j].DurNS })
	return out
}

// Errored snapshots the error ring in arrival order.
func (t *Tracer) Errored() []*Trace {
	if t == nil {
		return nil
	}
	t.ringsMu.Lock()
	defer t.ringsMu.Unlock()
	return append([]*Trace(nil), t.errs...)
}
