// Package server is passivemetrics golden testdata for the tracing
// side of the invariant: span recording arguments must never advance
// a virtual clock domain.
package server

import (
	"agilefpga/internal/sim"
	"agilefpga/internal/trace"
)

func record(tr *trace.Tracer, d *sim.Domain) {
	ref := tr.StartRoot("rpc", "server", 1)
	cost := d.Advance(10)
	tr.Add(ref, trace.Span{Name: "exec", Layer: "card", VirtPS: uint64(cost)})             // legal: the cost was computed first, the span is a passive record
	tr.Add(ref, trace.Span{Name: "exec", Layer: "card", VirtPS: uint64(d.Advance(10))})    // want `\(\*sim\.Domain\)\.Advance advances virtual time inside the arguments of trace call tr\.Add`
	child := tr.StartChild(ref, "queue", "cluster", uint16(d.Advance(1)))                  // want `Advance advances virtual time inside the arguments of trace call tr\.StartChild`
	tr.End(child, func() string { d.Advance(1); return "late" }())                         // want `\(\*sim\.Domain\)\.Advance advances virtual time inside the arguments of trace call tr\.End`
	tr.Add(ref, trace.Span{Name: "drain", Layer: "card", VirtPS: uint64(d.Span(10))})      // legal: Span converts cycles without moving the clock
	_ = tr.StartRemote(ref.TraceID, ref.SpanID, true, "hop", "server", uint16(d.Cycles())) // legal: Cycles reads the clock without moving it
	tr.End(ref, "ok")
}
