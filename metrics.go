package agilefpga

import (
	"io"
	"net/http"
	"time"

	"agilefpga/internal/metrics"
	"agilefpga/internal/trace"
)

// Metrics is the public face of a card's (or cluster's) telemetry
// registry: per-phase latency histograms and behaviour counters keyed by
// function, phase and card. Enable it with Config.Metrics; a nil
// *Metrics is safe and renders as an empty exposition.
//
// Observation is passive — recording into the registry never advances a
// virtual clock domain — so enabling metrics changes no simulated
// latency or experiment number.
type Metrics struct {
	reg *metrics.Registry
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): histograms as cumulative _bucket/_sum/_count
// series with virtual time in seconds, counters and gauges as single
// series. Output is deterministic for a given registry state.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	if m == nil || m.reg == nil {
		return nil
	}
	_, err := m.reg.WriteTo(w)
	return err
}

// Handler serves the registry over HTTP — mount it at /metrics and any
// Prometheus scraper (or curl) can read the card live.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WritePrometheus(w)
	})
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of the named histogram
// across every series whose labels match all the given key/value pairs,
// and reports how many observations backed the estimate. Zero
// observations yield (0, 0).
//
//	p95, n := m.Quantile("agile_phase_seconds", 0.95, map[string]string{"phase": "configure"})
func (m *Metrics) Quantile(name string, q float64, match map[string]string) (time.Duration, uint64) {
	if m == nil || m.reg == nil {
		return 0, 0
	}
	labels := make([]metrics.Label, 0, len(match))
	for k, v := range match {
		labels = append(labels, metrics.L(k, v))
	}
	t, n := m.reg.QuantileWhere(name, q, labels...)
	return t.Duration(), n
}

// Metrics exposes the card's telemetry registry, or nil when the card
// was built without Config.Metrics.
func (cp *CoProcessor) Metrics() *Metrics {
	if cp.inner.Metrics() == nil {
		return nil
	}
	return &Metrics{reg: cp.inner.Metrics()}
}

// Metrics exposes the cluster's shared telemetry registry (all cards
// record into one), or nil without Config.Metrics.
func (cl *Cluster) Metrics() *Metrics {
	if cl.inner.Metrics() == nil {
		return nil
	}
	return &Metrics{reg: cl.inner.Metrics()}
}

// StartTrace attaches a bounded structured event log to the card and
// returns it for export. cap bounds retained events (0 = the default
// 64k); on overflow the oldest half is dropped and accounted.
func (cp *CoProcessor) StartTrace(capacity int) *Trace {
	l := &trace.Log{Cap: capacity}
	cp.inner.SetTrace(l)
	return &Trace{log: l}
}

// StartTrace attaches one shared event log to every card, so the
// timeline interleaves all cards' events stamped with card identity.
func (cl *Cluster) StartTrace(capacity int) *Trace {
	l := &trace.Log{Cap: capacity}
	cl.inner.SetTrace(l)
	return &Trace{log: l}
}

// Trace is a handle on a live event log (see StartTrace).
type Trace struct {
	log *trace.Log
}

// Len reports retained events; Dropped reports events lost to overflow.
func (t *Trace) Len() int        { return t.log.Len() }
func (t *Trace) Dropped() uint64 { return t.log.Dropped() }

// WriteJSONL exports the log as JSON Lines (one event per line).
func (t *Trace) WriteJSONL(w io.Writer) error { return t.log.WriteJSONL(w) }

// WriteChrome exports the log as Chrome trace-event JSON: load the file
// in chrome://tracing or Perfetto to see a timeline of cards × phases.
func (t *Trace) WriteChrome(w io.Writer) error { return t.log.WriteChrome(w) }
