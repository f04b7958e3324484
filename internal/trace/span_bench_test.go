package trace

import "testing"

// The span-lifecycle benchmarks bound the tracer's real-time cost at
// the three sampling settings E24 studies. The sampled-out arm must
// allocate nothing (TestSpanLifecycleSampledOutAllocs): with Sample: 0
// every StartRoot returns the zero SpanRef and each subsequent
// operation must be a pointer test and nothing else — that is what
// makes `-trace-sample 0` (the default) genuinely free on the request
// path.

// lifecycle is the span shape of one traced client call: root call
// span, child attempt span, both ended.
func lifecycle(tr *Tracer) {
	ref := tr.StartRoot("call", "client", 7)
	aref := tr.StartChild(ref, "attempt", "client", 7)
	tr.End(aref, "ok")
	tr.End(ref, "ok")
}

// benchLifecycle drives lifecycle at a fixed sampling probability.
func benchLifecycle(b *testing.B, sample float64) {
	b.Helper()
	tr := NewTracer(TracerOptions{Sample: sample, Seed: 11})
	defer tr.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lifecycle(tr)
	}
}

// TestSpanLifecycleSampledOutAllocs gates the no-op path every untraced
// request takes at 0 allocations, with and without -race.
func TestSpanLifecycleSampledOutAllocs(t *testing.T) {
	tr := NewTracer(TracerOptions{Sample: 0, Seed: 11})
	defer tr.Close()
	if allocs := testing.AllocsPerRun(1000, func() { lifecycle(tr) }); allocs != 0 {
		t.Errorf("sampled-out span lifecycle allocates %.0f times, want 0", allocs)
	}
}

// BenchmarkSpanLifecycleSampledOut is the 0% arm: the no-op path every
// untraced request takes.
func BenchmarkSpanLifecycleSampledOut(b *testing.B) { benchLifecycle(b, 0) }

// BenchmarkSpanLifecycleSampled1pct is the production-sampling arm:
// 99 of 100 iterations take the sampled-out path, 1 pays full price.
func BenchmarkSpanLifecycleSampled1pct(b *testing.B) { benchLifecycle(b, 0.01) }

// BenchmarkSpanLifecycleSampledAll is the 100% arm — the worst case,
// every call assembling and filing a two-span trace.
func BenchmarkSpanLifecycleSampledAll(b *testing.B) { benchLifecycle(b, 1) }
