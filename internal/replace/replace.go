// Package replace implements the Frame Replacement Policy of the paper's
// mini OS (§2.5) and the baselines the experiments compare it against.
//
// The paper's policy is whole-algorithm LRU: the Frame Replacement Table
// stamps each resident algorithm with the last moment it was accessed,
// and the algorithm with the oldest stamp donates its frames. This
// package provides that policy plus FIFO, LFU, seeded-random, and a
// clairvoyant Belady-OPT baseline that bounds what any policy can achieve.
//
// Policies track residency through OnInstall/OnEvict and usage through
// OnAccess; Victim picks the resident function to evict next. All
// tie-breaks are deterministic so experiment runs reproduce exactly.
package replace

import (
	"errors"
	"fmt"
	"sort"

	"agilefpga/internal/sim"
)

// Policy selects eviction victims among resident functions.
type Policy interface {
	Name() string
	// OnInstall records that fn became resident at virtual time now.
	OnInstall(fn uint16, now uint64)
	// OnAccess records an execution of fn at virtual time now. For the
	// clairvoyant OPT baseline, accesses must arrive in trace order.
	OnAccess(fn uint16, now uint64)
	// OnEvict records that fn left the fabric.
	OnEvict(fn uint16)
	// Victim returns the resident function to evict. It fails if nothing
	// is resident.
	Victim() (uint16, error)
	// Fresh returns an empty policy of the same kind and parameters, so
	// every card built from one configuration keeps its own state.
	Fresh() Policy
}

// ErrNoResident reports a Victim call with an empty resident set.
var ErrNoResident = errors.New("replace: no resident function to evict")

// Names lists the available policy names.
func Names() []string { return []string{"lru", "fifo", "lfu", "random", "opt"} }

// New constructs the named policy. seed feeds the random policy; the
// clairvoyant opt policy cannot be built here — use NewOPT with a trace.
func New(name string, seed uint64) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(), nil
	case "fifo":
		return NewFIFO(), nil
	case "lfu":
		return NewLFU(), nil
	case "random":
		return NewRandom(seed), nil
	case "opt":
		return nil, errors.New("replace: opt needs the future trace; use NewOPT")
	default:
		return nil, fmt.Errorf("replace: unknown policy %q", name)
	}
}

// LRU is the paper's policy: evict the algorithm with the oldest
// last-access timestamp. Ties break toward the lower function id.
type LRU struct {
	last map[uint16]uint64
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{last: make(map[uint16]uint64)} }

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Fresh implements Policy.
func (p *LRU) Fresh() Policy { return NewLRU() }

// OnInstall implements Policy.
func (p *LRU) OnInstall(fn uint16, now uint64) { p.last[fn] = now }

// OnAccess implements Policy.
func (p *LRU) OnAccess(fn uint16, now uint64) {
	if _, resident := p.last[fn]; resident {
		p.last[fn] = now
	}
}

// OnEvict implements Policy.
func (p *LRU) OnEvict(fn uint16) { delete(p.last, fn) }

// Victim implements Policy.
func (p *LRU) Victim() (uint16, error) {
	if len(p.last) == 0 {
		return 0, ErrNoResident
	}
	var victim uint16
	first := true
	var oldest uint64
	for fn, t := range p.last {
		if first || t < oldest || (t == oldest && fn < victim) {
			victim, oldest, first = fn, t, false
		}
	}
	return victim, nil
}

// FIFO evicts in installation order, ignoring accesses.
type FIFO struct {
	order []uint16
}

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Policy.
func (p *FIFO) Name() string { return "fifo" }

// Fresh implements Policy.
func (p *FIFO) Fresh() Policy { return NewFIFO() }

// OnInstall implements Policy.
func (p *FIFO) OnInstall(fn uint16, now uint64) { p.order = append(p.order, fn) }

// OnAccess implements Policy.
func (p *FIFO) OnAccess(fn uint16, now uint64) {}

// OnEvict implements Policy.
func (p *FIFO) OnEvict(fn uint16) {
	for i, f := range p.order {
		if f == fn {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

// Victim implements Policy.
func (p *FIFO) Victim() (uint16, error) {
	if len(p.order) == 0 {
		return 0, ErrNoResident
	}
	return p.order[0], nil
}

// LFU evicts the least frequently used algorithm; ties break toward the
// least recently used, then the lower id.
type LFU struct {
	count map[uint16]uint64
	last  map[uint16]uint64
}

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU {
	return &LFU{count: make(map[uint16]uint64), last: make(map[uint16]uint64)}
}

// Name implements Policy.
func (p *LFU) Name() string { return "lfu" }

// Fresh implements Policy.
func (p *LFU) Fresh() Policy { return NewLFU() }

// OnInstall implements Policy.
func (p *LFU) OnInstall(fn uint16, now uint64) {
	p.count[fn] = 0
	p.last[fn] = now
}

// OnAccess implements Policy.
func (p *LFU) OnAccess(fn uint16, now uint64) {
	if _, resident := p.count[fn]; resident {
		p.count[fn]++
		p.last[fn] = now
	}
}

// OnEvict implements Policy.
func (p *LFU) OnEvict(fn uint16) {
	delete(p.count, fn)
	delete(p.last, fn)
}

// Victim implements Policy.
func (p *LFU) Victim() (uint16, error) {
	if len(p.count) == 0 {
		return 0, ErrNoResident
	}
	var victim uint16
	first := true
	var bestCount, bestLast uint64
	for fn, c := range p.count {
		l := p.last[fn]
		better := first || c < bestCount ||
			(c == bestCount && l < bestLast) ||
			(c == bestCount && l == bestLast && fn < victim)
		if better {
			victim, bestCount, bestLast, first = fn, c, l, false
		}
	}
	return victim, nil
}

// Random evicts a uniformly random resident algorithm from a seeded
// generator, so runs reproduce.
type Random struct {
	resident map[uint16]struct{}
	rng      *sim.RNG
	seed     uint64
}

// NewRandom returns a random policy with the given seed.
func NewRandom(seed uint64) *Random {
	return &Random{resident: make(map[uint16]struct{}), rng: sim.NewRNG(seed), seed: seed}
}

// Name implements Policy.
func (p *Random) Name() string { return "random" }

// Fresh implements Policy: the new policy restarts from the same seed.
func (p *Random) Fresh() Policy { return NewRandom(p.seed) }

// OnInstall implements Policy.
func (p *Random) OnInstall(fn uint16, now uint64) { p.resident[fn] = struct{}{} }

// OnAccess implements Policy.
func (p *Random) OnAccess(fn uint16, now uint64) {}

// OnEvict implements Policy.
func (p *Random) OnEvict(fn uint16) { delete(p.resident, fn) }

// Victim implements Policy.
func (p *Random) Victim() (uint16, error) {
	if len(p.resident) == 0 {
		return 0, ErrNoResident
	}
	ids := make([]int, 0, len(p.resident))
	for fn := range p.resident {
		ids = append(ids, int(fn))
	}
	sort.Ints(ids)
	return uint16(ids[p.rng.Intn(len(ids))]), nil
}

// OPT is Belady's clairvoyant policy: evict the resident algorithm whose
// next use lies farthest in the future (or never comes). It is the
// offline optimum for uniform-cost misses and serves as the upper bound
// in the replacement experiment. Accesses must be reported in exactly the
// order of the trace it was built from.
type OPT struct {
	trace    []uint16
	next     map[uint16][]int // future positions per function, ascending
	resident map[uint16]struct{}
	pos      int
}

// NewOPT builds the clairvoyant policy for a known request trace.
func NewOPT(trace []uint16) *OPT {
	next := make(map[uint16][]int)
	for i, fn := range trace {
		next[fn] = append(next[fn], i)
	}
	return &OPT{trace: trace, next: next, resident: make(map[uint16]struct{})}
}

// Name implements Policy.
func (p *OPT) Name() string { return "opt" }

// Fresh implements Policy: the new policy replays the same trace from
// its start.
func (p *OPT) Fresh() Policy { return NewOPT(p.trace) }

// OnInstall implements Policy.
func (p *OPT) OnInstall(fn uint16, now uint64) { p.resident[fn] = struct{}{} }

// OnAccess implements Policy. It consumes the function's current trace
// position, so subsequent Victim calls see only genuinely future uses.
func (p *OPT) OnAccess(fn uint16, now uint64) {
	q := p.next[fn]
	if len(q) > 0 {
		p.next[fn] = q[1:]
	}
	p.pos++
}

// OnEvict implements Policy.
func (p *OPT) OnEvict(fn uint16) { delete(p.resident, fn) }

// Victim implements Policy.
func (p *OPT) Victim() (uint16, error) {
	if len(p.resident) == 0 {
		return 0, ErrNoResident
	}
	var victim uint16
	first := true
	farthest := -1
	for fn := range p.resident {
		nxt := 1 << 62 // never used again
		if q := p.next[fn]; len(q) > 0 {
			nxt = q[0]
		}
		if first || nxt > farthest || (nxt == farthest && fn < victim) {
			victim, farthest, first = fn, nxt, false
		}
	}
	return victim, nil
}
