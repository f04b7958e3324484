// Package sim provides the timing substrate for the co-processor
// simulation: clock domains that convert cycles to time, a
// picosecond-resolution virtual time type, per-phase latency
// breakdowns, and a deterministic pseudo-random number generator.
//
// All components of the simulated co-processor express their costs in
// cycles of their own clock domain (PCI bus, configuration port, fabric,
// host CPU). Cycle counts convert to virtual time through the domain
// frequency, so experiments are fully deterministic and independent of
// wall-clock behaviour of the Go runtime.
package sim

import (
	"fmt"
	"time"
)

// Time is virtual time with picosecond resolution. Picoseconds keep the
// conversion from cycles exact for every clock frequency that divides
// 1 THz, which covers all domains used in this repository.
type Time uint64

// Common time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts virtual time to a time.Duration, rounding down to
// nanosecond resolution.
func (t Time) Duration() time.Duration {
	return time.Duration(t/Nanosecond) * time.Nanosecond
}

// Microseconds reports t in microseconds as a float for table output.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", uint64(t))
	}
}

// Domain is a clock domain: a cycle period. The zero value is unusable;
// construct domains with NewDomain.
type Domain struct {
	psPerCycle uint64
}

// NewDomain returns a clock domain running at hz hertz. The cycle period
// is rounded to the nearest picosecond (exact for every frequency that
// divides 1 THz; off by at most 0.5 ps otherwise, e.g. for 33 MHz PCI).
// NewDomain panics if hz is zero or above 1 THz.
func NewDomain(name string, hz uint64) *Domain {
	const thz = 1_000_000_000_000
	if hz == 0 || hz > thz {
		panic(fmt.Sprintf("sim: invalid frequency %d Hz for clock domain %q", hz, name))
	}
	return &Domain{psPerCycle: (thz + hz/2) / hz}
}

// Span converts a cycle count to the virtual time those cycles take.
func (d *Domain) Span(c uint64) Time { return Time(c * d.psPerCycle) }

// Phase identifies one stage of the request path for latency accounting.
type Phase int

// Phases of a co-processor request, in pipeline order.
const (
	PhasePCI        Phase = iota // host↔board transfers over the PCI bus
	PhaseROM                     // reading the compressed bitstream out of ROM
	PhaseDecompress              // configuration-module window decompression
	PhaseConfigure               // configuration-port frame writes
	PhaseDataIn                  // data-input module RAM→fabric streaming
	PhaseExec                    // function execution on the fabric
	PhaseDataOut                 // output-collection module fabric→RAM streaming
	PhaseOverhead                // mini-OS bookkeeping (placement, tables)
	PhaseCache                   // decoded-frame cache reads (RAM, not ROM+decode)
	PhasePipeStall               // bubbles in the pipelined configuration path
	// PhasePrefetch and PhaseScrub never appear in a request Breakdown —
	// their cost is off-request by design (Stats.PrefetchTime,
	// Stats.ScrubTime). They exist so the telemetry layer can label
	// latency histograms for that off-request work with the same Phase
	// vocabulary the request path uses.
	PhasePrefetch // speculative configuration loads during host idle time
	PhaseScrub    // SEU readback-and-repair passes
	numPhases
)

var phaseNames = [numPhases]string{
	"pci", "rom", "decompress", "configure", "datain", "exec", "dataout", "overhead", "cache",
	"pipestall", "prefetch", "scrub",
}

// String returns the lower-case phase name.
func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// NumPhases is the number of distinct accounting phases.
const NumPhases = int(numPhases)

// Breakdown accumulates virtual time per phase. The zero value is an empty
// breakdown ready to use.
type Breakdown struct {
	spans [numPhases]Time
}

// Add charges t to phase p. Out-of-range phases are charged to overhead.
func (b *Breakdown) Add(p Phase, t Time) {
	if p < 0 || p >= numPhases {
		p = PhaseOverhead
	}
	b.spans[p] += t
}

// Get reports the time charged to phase p.
func (b Breakdown) Get(p Phase) Time {
	if p < 0 || p >= numPhases {
		return 0
	}
	return b.spans[p]
}

// Total reports the sum over all phases.
func (b Breakdown) Total() Time {
	var t Time
	for _, s := range b.spans {
		t += s
	}
	return t
}

// AddAll accumulates another breakdown into b.
func (b *Breakdown) AddAll(o Breakdown) {
	for i := range b.spans {
		b.spans[i] += o.spans[i]
	}
}

// String renders the non-zero phases as "phase=duration" pairs.
func (b Breakdown) String() string {
	s := ""
	for i, v := range b.spans {
		if v == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%s", Phase(i), v)
	}
	if s == "" {
		return "empty"
	}
	return s
}

// RNG is a deterministic SplitMix64 pseudo-random generator. It is not
// cryptographic; it exists so that workloads, placement jitter, and the
// Random replacement policy reproduce exactly across runs and platforms.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds give
// independent-looking streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}
