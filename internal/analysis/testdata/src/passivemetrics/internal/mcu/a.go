// Package mcu is passivemetrics golden testdata: metrics observation
// arguments must never advance a virtual clock domain.
package mcu

import (
	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
)

func observe(r *metrics.Registry, d *sim.Domain) {
	h := r.Histogram("agile_phase")
	t := d.Advance(10)
	h.Observe(t)                                          // legal: the cost was computed first, observation is passive
	h.Observe(d.Advance(10))                              // want `\(\*sim\.Domain\)\.Advance advances virtual time inside the arguments of metrics call h\.Observe`
	r.Counter("agile_requests").Add(uint64(d.Advance(1))) // want `Advance advances virtual time`
	h.Observe(d.Span(10))                                 // legal: Span converts cycles without moving the clock
	r.Gauge("agile_depth").Set(int64(d.Span(1)))
	hw := r.HistogramWith("agile_window", metrics.SizeBuckets())
	hw.Observe(t)                                           // legal: passive observation of a precomputed value
	hw.Observe(d.Advance(2))                                // want `Advance advances virtual time`
	r.HistogramWith("agile_bad", nil).Observe(d.Advance(3)) // want `Advance advances virtual time`
}
