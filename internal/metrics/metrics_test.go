package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"agilefpga/internal/sim"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x", L("a", "b")).Inc()
	r.Gauge("y").Set(7)
	r.Histogram("z").Observe(sim.Microsecond)
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil registry snapshot = %v", got)
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil || buf.Len() != 0 {
		t.Error("nil registry wrote output")
	}
	if q, n := r.QuantileWhere("z", 0.5); q != 0 || n != 0 {
		t.Error("nil registry quantile nonzero")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs", L("fn", "aes128"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	// Same name+labels returns the same series regardless of label order.
	if r.Counter("reqs", L("fn", "aes128")) != c {
		t.Error("lookup did not dedupe")
	}
	g := r.Gauge("depth", L("card", "0"))
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Dec()
	if g.Value() != 2 {
		t.Errorf("gauge = %d", g.Value())
	}
}

func TestTypeMismatchReturnsNoop(t *testing.T) {
	r := NewRegistry()
	r.Counter("m").Inc()
	if g := r.Gauge("m"); g != nil {
		t.Error("type mismatch returned a live instrument")
	}
	// The original keeps working and the mismatch was a no-op.
	r.Gauge("m").Set(99)
	if r.Counter("m").Value() != 1 {
		t.Error("counter corrupted by mismatched lookup")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", L("phase", "exec"))
	for i := 0; i < 100; i++ {
		h.Observe(10 * sim.Microsecond) // falls in the (5µs, 10µs] bucket
	}
	if h.Count() != 100 || h.Sum() != 1000*sim.Microsecond {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "histogram" {
		t.Fatalf("snapshot = %+v", snap)
	}
	q := snap[0].Quantile(0.5)
	if q <= 5*sim.Microsecond || q > 10*sim.Microsecond {
		t.Errorf("p50 = %v, want in (5µs, 10µs]", q)
	}
	// All mass in one bucket: p99 stays in the same bucket.
	if q99 := snap[0].Quantile(0.99); q99 > 10*sim.Microsecond {
		t.Errorf("p99 = %v", q99)
	}
}

// TestHistogramWithCustomBuckets pins the count-valued histogram path:
// SizeBuckets bounds resolve sizes exactly (each power of two is its
// own upper edge), and the bounds stick on first registration.
func TestHistogramWithCustomBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWith("batch_window", SizeBuckets())
	for _, n := range []int{1, 1, 8, 8, 8, 32} {
		h.Observe(sim.Time(n))
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Count != 6 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got := snap[0].Bounds[0]; got != 1 {
		t.Fatalf("first bound = %v, want 1", got)
	}
	// Bucket counts: ≤1 holds 2, (4,8] holds 3, (16,32] holds 1.
	if snap[0].Buckets[0] != 2 || snap[0].Buckets[3] != 3 || snap[0].Buckets[5] != 1 {
		t.Fatalf("buckets = %v", snap[0].Buckets)
	}
	// A later default-bounds lookup of the same series must return the
	// same histogram, not re-bucket it.
	if h2 := r.Histogram("batch_window"); h2 != h {
		t.Fatal("second lookup returned a different histogram")
	}
}

func TestQuantileSpreadIsMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 90 fast, 10 slow: p50 low, p95+ high.
	for i := 0; i < 90; i++ {
		h.Observe(200 * sim.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(2 * sim.Millisecond)
	}
	s := r.Snapshot()[0]
	p50, p95, p99 := s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Errorf("quantiles not monotone: %v %v %v", p50, p95, p99)
	}
	if p50 > sim.Microsecond {
		t.Errorf("p50 = %v, want sub-µs", p50)
	}
	if p99 < sim.Millisecond {
		t.Errorf("p99 = %v, want ≥ 1ms", p99)
	}
}

func TestQuantileOverflowClampsToTopBound(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(10 * sim.Second) // beyond every bound → +Inf bucket
	s := r.Snapshot()[0]
	top := s.Bounds[len(s.Bounds)-1]
	if got := s.Quantile(0.99); got != top {
		t.Errorf("overflow quantile = %v, want clamp to %v", got, top)
	}
}

func TestMergeHistogramsAndQuantileWhere(t *testing.T) {
	r := NewRegistry()
	r.Histogram("agile_phase_seconds", L("phase", "exec"), L("fn", "a")).Observe(sim.Microsecond)
	r.Histogram("agile_phase_seconds", L("phase", "exec"), L("fn", "b")).Observe(sim.Microsecond)
	r.Histogram("agile_phase_seconds", L("phase", "configure"), L("fn", "a")).Observe(sim.Millisecond)
	if _, n := r.QuantileWhere("agile_phase_seconds", 0.5, L("phase", "exec")); n != 2 {
		t.Errorf("merged count = %d, want 2", n)
	}
	q, n := r.QuantileWhere("agile_phase_seconds", 0.5, L("phase", "configure"))
	if n != 1 || q < 500*sim.Microsecond {
		t.Errorf("configure quantile = %v (n=%d)", q, n)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("agile_requests_total", L("fn", "aes128"), L("result", "hit")).Add(3)
	r.Gauge("agile_cluster_queue_depth", L("card", "0")).Set(2)
	r.Histogram("agile_phase_seconds", L("phase", "configure"), L("fn", "aes128")).Observe(300 * sim.Microsecond)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE agile_requests_total counter",
		`agile_requests_total{fn="aes128",result="hit"} 3`,
		"# TYPE agile_cluster_queue_depth gauge",
		`agile_cluster_queue_depth{card="0"} 2`,
		"# TYPE agile_phase_seconds histogram",
		`agile_phase_seconds_bucket{fn="aes128",phase="configure",le="+Inf"} 1`,
		`agile_phase_seconds_count{fn="aes128",phase="configure"} 1`,
		`agile_phase_seconds_sum{fn="aes128",phase="configure"} 0.0003`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Buckets are cumulative: the 500µs bucket includes the 300µs sample.
	if !strings.Contains(out, `le="0.0005"} 1`) {
		t.Errorf("cumulative bucket missing:\n%s", out)
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	if _, err := r.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("exposition not deterministic")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c", L("g", string(rune('a'+g)))).Inc()
				r.Histogram("h").Observe(sim.Time(i) * sim.Microsecond)
				r.Gauge("q").Inc()
			}
		}(g)
	}
	wg.Wait()
	if r.Gauge("q").Value() != 4000 {
		t.Errorf("gauge = %d", r.Gauge("q").Value())
	}
	if r.Histogram("h").Count() != 4000 {
		t.Errorf("hist count = %d", r.Histogram("h").Count())
	}
	total := uint64(0)
	for _, s := range r.Snapshot() {
		if s.Name == "c" {
			total += uint64(s.Value)
		}
	}
	if total != 4000 {
		t.Errorf("counters sum = %d", total)
	}
}

// TestRegistryLookupAllocs pins a lookup of an existing series at zero
// allocations, whatever the label count and order: the daemons attach a
// registry to every card, so every observation on the serving path
// takes this path. The key is built and the labels sorted on the stack;
// only creating a series copies them.
func TestRegistryLookupAllocs(t *testing.T) {
	r := NewRegistry()
	fn, phase, card := L("fn", "sha256"), L("phase", "exec"), L("card", "1")
	sizes := SizeBuckets()
	lookups := []struct {
		name string
		run  func()
	}{
		{"counter, no labels", func() { r.Counter("agile_chain_runs_total").Inc() }},
		{"counter, one label", func() { r.Counter("agile_errors_total", fn).Inc() }},
		{"gauge, one label", func() { r.Gauge("agile_cluster_queue_depth", card).Inc() }},
		{"histogram, two labels", func() { r.Histogram("agile_phase_seconds", phase, fn).Observe(sim.Microsecond) }},
		{"histogram, two labels reversed", func() { r.Histogram("agile_phase_seconds", fn, phase).Observe(sim.Microsecond) }},
		{"histogram with bounds, three labels", func() {
			r.HistogramWith("agile_net_batch_window_size", sizes, phase, card, fn).Observe(4)
		}},
	}
	for _, l := range lookups {
		l.run() // create the series
		if got := testing.AllocsPerRun(100, l.run); got != 0 {
			t.Errorf("%s: a lookup of an existing series allocates %.0f times, want 0", l.name, got)
		}
	}
	if n := len(r.Snapshot()); n != len(lookups)-1 {
		t.Errorf("%d series registered, want %d: label order must not make a new series", n, len(lookups)-1)
	}
}
