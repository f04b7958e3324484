package router

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// The oracles below are the map-based LookupN and candidates the
// append forms replaced, kept as the reference for routing order: only
// the receiver became a parameter and the ring call its oracle.

func oracleLookupN(r *Ring, fn uint16, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := r.keyHash(fn)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		p := r.points[(i+j)%len(r.points)]
		if _, ok := seen[p.node]; !ok {
			seen[p.node] = struct{}{}
			out = append(out, p.node)
		}
	}
	return out
}

func oracleCandidates(r *Router, key uint16) ([]*backend, bool) {
	reps := oracleLookupN(r.ring, key, r.opts.Replication)
	inReps := make(map[string]struct{}, len(reps))
	cands := make([]*backend, 0, len(r.order))
	for _, name := range reps {
		inReps[name] = struct{}{}
		if b := r.backends[name]; b.healthy() {
			cands = append(cands, b)
		}
	}
	spilled := false
	if len(cands) >= 2 {
		primary := cands[0]
		if int(primary.inflight.Load()) >= r.opts.SpillThreshold {
			best, bi := primary, 0
			for i, b := range cands[1:] {
				if b.inflight.Load() < best.inflight.Load() {
					best, bi = b, i+1
				}
			}
			if bi != 0 {
				cands[0], cands[bi] = cands[bi], cands[0]
				spilled = true
			}
		}
	}
	for _, name := range r.order {
		if _, ok := inReps[name]; ok {
			continue
		}
		if b := r.backends[name]; b.healthy() {
			cands = append(cands, b)
		}
	}
	for _, name := range reps {
		if b := r.backends[name]; !b.healthy() {
			cands = append(cands, b)
		}
	}
	for _, name := range r.order {
		if _, ok := inReps[name]; ok {
			continue
		}
		if b := r.backends[name]; !b.healthy() {
			cands = append(cands, b)
		}
	}
	return cands, spilled
}

// randomRouter builds a router over n backends without dialling any:
// random names and ring seed, each backend in a random health state
// with an in-flight count within two of the spill threshold.
func randomRouter(rng *rand.Rand, n, replication, spill int) *Router {
	r := &Router{
		opts:     Options{Replication: replication, SpillThreshold: spill},
		ring:     NewRing(0, rng.Uint64()),
		backends: make(map[string]*backend, n),
	}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("10.%d.0.%d:7600", rng.IntN(4), i)
		b := newBackend(addr, nil)
		b.state.Store(int32(rng.IntN(3)))
		b.inflight.Store(int64(spill - 2 + rng.IntN(5)))
		r.ring.Add(addr)
		r.backends[addr] = b
	}
	r.order = r.ring.Nodes()
	return r
}

func addrs(bs []*backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.addr
	}
	return out
}

// TestCandidatesMatchOracle draws random fleets of 1–12 backends —
// past the stack array, so the heap fallback runs too — with
// Replication 1–5, random health and in-flight counts around the spill
// threshold, and requires the candidate order, the spill flag and the
// replica list to equal the oracles'.
func TestCandidatesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 1))
	for trial := 0; trial < 400; trial++ {
		n, replication, spill := 1+rng.IntN(12), 1+rng.IntN(5), 1+rng.IntN(8)
		r := randomRouter(rng, n, replication, spill)
		for k := 0; k < 32; k++ {
			key := uint16(rng.Uint32())
			var buf [stackCands]*backend
			got, gotSpill := r.candidates(buf[:0], key)
			want, wantSpill := oracleCandidates(r, key)
			if !slices.Equal(addrs(got), addrs(want)) || gotSpill != wantSpill {
				t.Fatalf("trial %d (%d backends, replication %d, spill at %d), key %d:\n got %v spilled=%v\nwant %v spilled=%v",
					trial, n, replication, spill, key, addrs(got), gotSpill, addrs(want), wantSpill)
			}
			if got, want := r.ring.LookupN(nil, key, replication), oracleLookupN(r.ring, key, replication); !slices.Equal(got, want) {
				t.Fatalf("trial %d, key %d: LookupN = %v, oracle %v", trial, key, got, want)
			}
		}
	}
}
