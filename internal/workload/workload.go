// Package workload generates the on-demand request streams the host fires
// at the co-processor in the replacement and end-to-end experiments. Four
// shapes cover the interesting regimes for the paper's LRU policy:
//
//   - uniform: no locality; every function equally likely.
//   - zipf: skewed popularity (a few hot functions), the regime where
//     recency-based eviction shines.
//   - phased: a small working set that rotates periodically, modelling an
//     appliance that switches duty (e.g. IPSec by day, batch hashing by
//     night).
//   - cyclic: strict round-robin over one-more-than-capacity functions,
//     the classic LRU adversary.
//
// All generators are deterministic in their seed.
package workload

import (
	"fmt"

	"agilefpga/internal/sim"
)

// Generator yields an endless stream of function ids.
type Generator interface {
	Name() string
	Next() uint16
}

// Names lists the available generator names.
func Names() []string { return []string{"uniform", "zipf", "phased", "cyclic"} }

// New constructs the named generator over the catalogue fns.
// zipf uses skew s=1.1; phased uses a working set of 3 rotating every 50
// requests. Use the specific constructors for other parameters.
func New(name string, fns []uint16, seed uint64) (Generator, error) {
	switch name {
	case "uniform":
		return NewUniform(fns, seed)
	case "zipf":
		return NewZipf(fns, 1.1, seed)
	case "phased":
		return NewPhased(fns, 3, 50, seed)
	case "cyclic":
		return NewCyclic(fns)
	default:
		return nil, fmt.Errorf("workload: unknown generator %q", name)
	}
}

// Collect draws n requests from g.
func Collect(g Generator, n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func checkFns(fns []uint16) error {
	if len(fns) == 0 {
		return fmt.Errorf("workload: empty function catalogue")
	}
	return nil
}

// Uniform draws functions independently and uniformly.
type Uniform struct {
	fns []uint16
	rng *sim.RNG
}

// NewUniform returns a uniform generator over fns.
func NewUniform(fns []uint16, seed uint64) (*Uniform, error) {
	if err := checkFns(fns); err != nil {
		return nil, err
	}
	return &Uniform{fns: append([]uint16(nil), fns...), rng: sim.NewRNG(seed)}, nil
}

// Name implements Generator.
func (g *Uniform) Name() string { return "uniform" }

// Next implements Generator.
func (g *Uniform) Next() uint16 { return g.fns[g.rng.Intn(len(g.fns))] }

// Zipf draws functions with probability proportional to 1/rank^s, rank
// following the catalogue order (fns[0] is the hottest).
type Zipf struct {
	fns []uint16
	cdf []float64
	rng *sim.RNG
	s   float64
}

// NewZipf returns a Zipf generator with skew s > 0.
func NewZipf(fns []uint16, s float64, seed uint64) (*Zipf, error) {
	if err := checkFns(fns); err != nil {
		return nil, err
	}
	if s <= 0 {
		return nil, fmt.Errorf("workload: zipf skew must be positive, got %v", s)
	}
	cdf := make([]float64, len(fns))
	sum := 0.0
	for i := range fns {
		sum += 1 / powf(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{fns: append([]uint16(nil), fns...), cdf: cdf, rng: sim.NewRNG(seed), s: s}, nil
}

// powf is x^y for y > 0 via exp/log-free repeated refinement — x^y =
// exp(y ln x); to stay in the stdlib-only spirit without importing math
// here we simply use the math package. (Kept as a helper for clarity.)
func powf(x, y float64) float64 {
	// x^y with x >= 1: integer part by multiplication, fractional part by
	// square roots (binary expansion), 20 bits of precision.
	ip := int(y)
	r := 1.0
	for i := 0; i < ip; i++ {
		r *= x
	}
	frac := y - float64(ip)
	base := x
	for bit := 0; bit < 20 && frac > 0; bit++ {
		base = sqrtf(base)
		frac *= 2
		if frac >= 1 {
			r *= base
			frac -= 1
		}
	}
	return r
}

// sqrtf is Newton's method square root.
func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 30; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Name implements Generator.
func (g *Zipf) Name() string { return "zipf" }

// Next implements Generator.
func (g *Zipf) Next() uint16 {
	u := g.rng.Float64()
	lo, hi := 0, len(g.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return g.fns[lo]
}

// Phased rotates a contiguous working set of wsSize functions every
// phaseLen requests; within a phase, requests are uniform over the set.
type Phased struct {
	fns      []uint16
	wsSize   int
	phaseLen int
	rng      *sim.RNG
	count    int
	phase    int
}

// NewPhased returns a phased generator.
func NewPhased(fns []uint16, wsSize, phaseLen int, seed uint64) (*Phased, error) {
	if err := checkFns(fns); err != nil {
		return nil, err
	}
	if wsSize <= 0 || wsSize > len(fns) {
		return nil, fmt.Errorf("workload: working set %d out of range (catalogue %d)", wsSize, len(fns))
	}
	if phaseLen <= 0 {
		return nil, fmt.Errorf("workload: phase length %d must be positive", phaseLen)
	}
	return &Phased{
		fns: append([]uint16(nil), fns...), wsSize: wsSize,
		phaseLen: phaseLen, rng: sim.NewRNG(seed),
	}, nil
}

// Name implements Generator.
func (g *Phased) Name() string { return "phased" }

// Next implements Generator.
func (g *Phased) Next() uint16 {
	if g.count == g.phaseLen {
		g.count = 0
		g.phase++
	}
	g.count++
	start := (g.phase * g.wsSize) % len(g.fns)
	return g.fns[(start+g.rng.Intn(g.wsSize))%len(g.fns)]
}

// Cyclic is strict round-robin over the catalogue — the LRU adversary
// when the catalogue exceeds fabric capacity by one.
type Cyclic struct {
	fns []uint16
	i   int
}

// NewCyclic returns a cyclic generator.
func NewCyclic(fns []uint16) (*Cyclic, error) {
	if err := checkFns(fns); err != nil {
		return nil, err
	}
	return &Cyclic{fns: append([]uint16(nil), fns...)}, nil
}

// Name implements Generator.
func (g *Cyclic) Name() string { return "cyclic" }

// Next implements Generator.
func (g *Cyclic) Next() uint16 {
	fn := g.fns[g.i]
	g.i = (g.i + 1) % len(g.fns)
	return fn
}

// Markov draws requests from a first-order Markov chain: with
// probability `stick` the next request follows the deterministic
// successor ring (fns[i] → fns[i+1]), otherwise it jumps uniformly.
// stick=1 degenerates to cyclic, stick=0 to uniform; the range between
// dials how predictable the stream is — the knob the configuration
// prefetcher's payoff depends on.
type Markov struct {
	fns   []uint16
	index map[uint16]int
	stick float64
	rng   *sim.RNG
	cur   int
}

// NewMarkov returns a Markov generator with the given stickiness in
// [0, 1].
func NewMarkov(fns []uint16, stick float64, seed uint64) (*Markov, error) {
	if err := checkFns(fns); err != nil {
		return nil, err
	}
	if stick < 0 || stick > 1 {
		return nil, fmt.Errorf("workload: markov stickiness %v outside [0,1]", stick)
	}
	idx := make(map[uint16]int, len(fns))
	for i, fn := range fns {
		idx[fn] = i
	}
	return &Markov{
		fns: append([]uint16(nil), fns...), index: idx,
		stick: stick, rng: sim.NewRNG(seed),
	}, nil
}

// Name implements Generator.
func (g *Markov) Name() string { return "markov" }

// Next implements Generator.
func (g *Markov) Next() uint16 {
	if g.rng.Float64() < g.stick {
		g.cur = (g.cur + 1) % len(g.fns)
	} else {
		g.cur = g.rng.Intn(len(g.fns))
	}
	return g.fns[g.cur]
}
