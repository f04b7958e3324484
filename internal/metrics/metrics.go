// Package metrics is the co-processor's telemetry layer: lock-cheap
// counters, gauges and fixed-bucket histograms over virtual time,
// collected into one Registry and exported either as a structured
// snapshot (quantile queries, as E17 and agilesim read them) or as Prometheus
// text exposition (the agilesim -metrics-addr endpoint).
//
// Recording is designed to be safe on the hot path: every instrument is
// a handful of atomic operations, series lookup takes only a read lock
// once a series exists, and — mirroring trace.Log — a nil *Registry is
// a valid sink that records nothing, so instrumented code never
// branches on "are metrics enabled" beyond the nil check Go gives for
// free. Observation never advances any clock domain: enabling metrics
// cannot change a single virtual-time experiment number.
package metrics

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"agilefpga/internal/sim"
)

// Label is one name=value pair attached to a series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (queue depths, busy flags).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d. Safe on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Inc and Dec move the gauge by ±1. Safe on nil receivers.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates virtual-time observations into fixed buckets.
// Bounds are upper-inclusive bucket edges in ascending order; a final
// implicit +Inf bucket catches everything above the last bound.
type Histogram struct {
	bounds  []sim.Time
	buckets []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sum     atomic.Uint64 // picoseconds
	// Exemplar: the trace id and value of the most recent traced
	// observation, linking the aggregate series back to one concrete
	// request a reader can pull from /debug/traces. Two independent
	// atomics — a torn id/value pair costs a slightly mismatched
	// exemplar, never a wrong aggregate.
	exTraceID atomic.Uint64
	exValue   atomic.Uint64
}

// DefaultLatencyBuckets covers the repository's virtual-latency range:
// hit-path phases sit in the hundreds of nanoseconds, full
// reconfigurations in the hundreds of microseconds to milliseconds.
func DefaultLatencyBuckets() []sim.Time {
	return []sim.Time{
		100 * sim.Nanosecond, 250 * sim.Nanosecond, 500 * sim.Nanosecond,
		1 * sim.Microsecond, 2500 * sim.Nanosecond, 5 * sim.Microsecond,
		10 * sim.Microsecond, 25 * sim.Microsecond, 50 * sim.Microsecond,
		100 * sim.Microsecond, 250 * sim.Microsecond, 500 * sim.Microsecond,
		1 * sim.Millisecond, 2500 * sim.Microsecond, 5 * sim.Millisecond,
		10 * sim.Millisecond, 25 * sim.Millisecond, 50 * sim.Millisecond,
		100 * sim.Millisecond,
	}
}

// SizeBuckets covers count-valued histograms (batch window sizes,
// queue occupancies): powers of two from 1 to 1024, stored in the same
// sim.Time bucket machinery the latency histograms use — one raw unit
// per counted item, no time semantics.
func SizeBuckets() []sim.Time {
	return []sim.Time{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}

// Observe records one virtual-time sample. Safe on a nil receiver.
func (h *Histogram) Observe(t sim.Time) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return t <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(t))
}

// ObserveExemplar is Observe plus an exemplar: when traceID is
// non-zero the observation's trace id is remembered (last writer
// wins) and exported alongside the series, so a latency spike on a
// dashboard links to the distributed trace that caused it. Safe on a
// nil receiver.
func (h *Histogram) ObserveExemplar(t sim.Time, traceID uint64) {
	if h == nil {
		return
	}
	h.Observe(t)
	if traceID != 0 {
		h.exTraceID.Store(traceID)
		h.exValue.Store(uint64(t))
	}
}

// Exemplar reports the most recent traced observation (zero trace id
// when no traced observation has been recorded). Safe on a nil
// receiver.
func (h *Histogram) Exemplar() (traceID uint64, value sim.Time) {
	if h == nil {
		return 0, 0
	}
	return h.exTraceID.Load(), sim.Time(h.exValue.Load())
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the total of all observations.
func (h *Histogram) Sum() sim.Time {
	if h == nil {
		return 0
	}
	return sim.Time(h.sum.Load())
}

// seriesKind discriminates the three instrument types.
type seriesKind int

const (
	kindCounter seriesKind = iota
	kindGauge
	kindHistogram
)

func (k seriesKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered instrument with its identity.
type series struct {
	name   string
	labels []Label
	kind   seriesKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds every registered series. The zero value is not usable;
// construct with NewRegistry. A nil *Registry is a valid no-op sink:
// all lookup methods return nil instruments whose methods do nothing.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// A lookup of up to stackLabels labels whose key fits stackKeyBytes
// sorts the labels and builds the key on the stack.
const (
	stackLabels   = 8
	stackKeyBytes = 128
)

// appendKey appends the map key of a series to b: name plus k=v pairs
// in the order of sorted (see sortLabels).
func appendKey(b []byte, name string, sorted []Label) []byte {
	b = append(b, name...)
	for _, l := range sorted {
		b = append(b, 0xff)
		b = append(b, l.Key...)
		b = append(b, '=')
		b = append(b, l.Value...)
	}
	return b
}

// sortLabels sorts labels by key in place, so call sites need not agree
// on ordering. Label lists are short: an insertion sort, which needs no
// closure to escape.
func sortLabels(labels []Label) []Label {
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && labels[j].Key < labels[j-1].Key; j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
	return labels
}

// lookup finds or creates a series, taking only a read lock on the hot
// (already registered) path, which allocates nothing: the labels are
// sorted in a stack copy, the key is built in a stack buffer, and both
// are copied to the heap only when the series is created. bounds
// applies only to histogram creation (nil = DefaultLatencyBuckets) and
// is ignored once the series exists.
func (r *Registry) lookup(name string, labels []Label, kind seriesKind, bounds []sim.Time) *series {
	var lbuf [stackLabels]Label
	var kbuf [stackKeyBytes]byte
	sorted := sortLabels(append(lbuf[:0], labels...))
	key := appendKey(kbuf[:0], name, sorted)
	r.mu.RLock()
	s := r.series[string(key)]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.series[string(key)]; s != nil {
		return s
	}
	s = &series{name: name, labels: slices.Clone(sorted), kind: kind}
	switch kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		if bounds == nil {
			bounds = DefaultLatencyBuckets()
		}
		s.hist = &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	}
	r.series[string(key)] = s
	return s
}

// Counter returns the counter series for name+labels, creating it on
// first use. A nil registry returns a nil (no-op) counter. Looking a
// name up with a different instrument type than it was first registered
// with returns a detached no-op instrument rather than corrupting the
// registered one.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.lookup(name, labels, kindCounter, nil)
	if s.kind != kindCounter {
		return nil
	}
	return s.counter
}

// Gauge returns the gauge series for name+labels, creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.lookup(name, labels, kindGauge, nil)
	if s.kind != kindGauge {
		return nil
	}
	return s.gauge
}

// Histogram returns the histogram series for name+labels with the
// default latency buckets, creating it on first use. A nil registry
// returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, labels, kindHistogram, nil)
	if s.kind != kindHistogram {
		return nil
	}
	return s.hist
}

// HistogramWith is Histogram with explicit bucket bounds (ascending
// upper edges), for series whose values are not latencies — batch
// window sizes, occupancies. Bounds apply only when the series is
// created; later lookups return the existing histogram unchanged, so
// every call site of one series should pass the same bounds.
func (r *Registry) HistogramWith(name string, bounds []sim.Time, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, labels, kindHistogram, bounds)
	if s.kind != kindHistogram {
		return nil
	}
	return s.hist
}

// SeriesSnapshot is one series' frozen state.
type SeriesSnapshot struct {
	Name   string
	Labels []Label
	Kind   string // "counter", "gauge" or "histogram"
	// Value carries counter/gauge readings.
	Value int64
	// Histogram state: per-bucket (non-cumulative) counts aligned with
	// Bounds, plus the implicit +Inf bucket at the end.
	Bounds  []sim.Time
	Buckets []uint64
	Count   uint64
	Sum     sim.Time
	// ExemplarTraceID/ExemplarValue carry the histogram's most recent
	// traced observation (zero id = none).
	ExemplarTraceID uint64
	ExemplarValue   sim.Time
}

// Label reports the value of one label key ("" when absent).
func (s SeriesSnapshot) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of a histogram snapshot
// by linear interpolation within the containing bucket. Observations in
// the +Inf bucket clamp to the highest finite bound. Returns 0 when the
// snapshot is empty or not a histogram.
func (s SeriesSnapshot) Quantile(q float64) sim.Time {
	if s.Count == 0 || len(s.Bounds) == 0 || len(s.Buckets) != len(s.Bounds)+1 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := 0.0
	for i, n := range s.Buckets {
		prev := cum
		cum += float64(n)
		if cum < target || n == 0 {
			continue
		}
		if i == len(s.Bounds) { // +Inf bucket: clamp
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := sim.Time(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (target - prev) / float64(n)
		return lo + sim.Time(frac*float64(hi-lo))
	}
	return s.Bounds[len(s.Bounds)-1]
}

// snapshotOne freezes one series.
func snapshotOne(s *series) SeriesSnapshot {
	out := SeriesSnapshot{
		Name:   s.name,
		Labels: append([]Label(nil), s.labels...),
		Kind:   s.kind.String(),
	}
	switch s.kind {
	case kindCounter:
		out.Value = int64(s.counter.Value())
	case kindGauge:
		out.Value = s.gauge.Value()
	case kindHistogram:
		out.Bounds = append([]sim.Time(nil), s.hist.bounds...)
		out.Buckets = make([]uint64, len(s.hist.buckets))
		for i := range s.hist.buckets {
			out.Buckets[i] = s.hist.buckets[i].Load()
		}
		out.Count = s.hist.Count()
		out.Sum = s.hist.Sum()
		out.ExemplarTraceID, out.ExemplarValue = s.hist.Exemplar()
	}
	return out
}

// Snapshot freezes every series, sorted by name then labels — a stable
// order for exporters and tests. Safe on a nil registry (returns nil).
func (r *Registry) Snapshot() []SeriesSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.RUnlock()
	out := make([]SeriesSnapshot, 0, len(all))
	for _, s := range all {
		out = append(out, snapshotOne(s))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelString(out[i].Labels) < labelString(out[j].Labels)
	})
	return out
}

// MergeHistograms sums histogram snapshots that share identical bucket
// bounds into one (label-less) snapshot — the aggregation behind
// "quantile over all functions for one phase". Non-histogram and
// mismatched-bounds entries are skipped. ok is false when nothing
// merged.
func MergeHistograms(snaps []SeriesSnapshot) (merged SeriesSnapshot, ok bool) {
	for _, s := range snaps {
		if s.Kind != "histogram" || len(s.Buckets) != len(s.Bounds)+1 {
			continue
		}
		if !ok {
			merged = SeriesSnapshot{
				Name:    s.Name,
				Kind:    "histogram",
				Bounds:  append([]sim.Time(nil), s.Bounds...),
				Buckets: make([]uint64, len(s.Buckets)),
			}
			ok = true
		}
		if len(s.Bounds) != len(merged.Bounds) {
			continue
		}
		for i, b := range s.Buckets {
			merged.Buckets[i] += b
		}
		merged.Count += s.Count
		merged.Sum += s.Sum
	}
	return merged, ok
}

// QuantileWhere merges every histogram series called name whose labels
// include all of match, then reports the q-quantile and the merged
// observation count. Safe on a nil registry.
func (r *Registry) QuantileWhere(name string, q float64, match ...Label) (sim.Time, uint64) {
	if r == nil {
		return 0, 0
	}
	var picked []SeriesSnapshot
	for _, s := range r.Snapshot() {
		if s.Name != name || s.Kind != "histogram" {
			continue
		}
		matches := true
		for _, m := range match {
			if s.Label(m.Key) != m.Value {
				matches = false
				break
			}
		}
		if matches {
			picked = append(picked, s)
		}
	}
	merged, ok := MergeHistograms(picked)
	if !ok {
		return 0, 0
	}
	return merged.Quantile(q), merged.Count
}
