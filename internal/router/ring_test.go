package router_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"agilefpga/internal/router"
)

func ringNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:7600", i+1)
	}
	return out
}

func buildRing(nodes []string, seed uint64) *router.Ring {
	r := router.NewRing(0, seed)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// owners maps every function id in the 16-bit key space to its node.
func owners(r *router.Ring) map[uint16]string {
	m := make(map[uint16]string, 1<<16)
	for fn := 0; fn < 1<<16; fn++ {
		m[uint16(fn)] = r.Lookup(uint16(fn))
	}
	return m
}

// TestRingDistributionBounds pins the load-balance property across
// every fleet size the router targets: with default vnodes, no node
// owns less than half or more than twice its fair share of the
// function-id space.
func TestRingDistributionBounds(t *testing.T) {
	for n := 1; n <= 16; n++ {
		r := buildRing(ringNodes(n), 1)
		counts := make(map[string]int, n)
		for fn, node := range owners(r) {
			_ = fn
			counts[node]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d nodes own keys", n, len(counts))
		}
		fair := float64(1<<16) / float64(n)
		for node, c := range counts {
			share := float64(c) / fair
			if share < 0.5 || share > 2.0 {
				t.Fatalf("n=%d: node %s owns %.2fx fair share (count %d, fair %.0f)",
					n, node, share, c, fair)
			}
		}
	}
}

// TestRingVNodesTightenBalance: the vnode count is what evens the key
// shares out. Over eight nodes, one point each leaves the most loaded
// node further from its fair share than the default count does.
func TestRingVNodesTightenBalance(t *testing.T) {
	worst := func(vnodes int) float64 {
		r := router.NewRing(vnodes, 1)
		for _, n := range ringNodes(8) {
			r.Add(n)
		}
		counts := make(map[string]int)
		for _, node := range owners(r) {
			counts[node]++
		}
		fair, max := float64(1<<16)/8, 0.0
		for _, c := range counts {
			max = math.Max(max, math.Abs(float64(c)/fair-1))
		}
		return max
	}
	if one, def := worst(1), worst(router.DefaultVNodes); def >= one {
		t.Errorf("worst share deviation %.2f at %d vnodes, %.2f at 1: more points should even the shares", def, router.DefaultVNodes, one)
	}
}

// TestRingMinimalKeyMovement is the consistent-hashing property test:
// adding a node moves only the keys the new node takes. Checked across
// random sizes and seeds with a seeded PRNG so failures replay.
func TestRingMinimalKeyMovement(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 8; trial++ {
		n := 1 + int(rng.Uint64()%12)
		seed := rng.Uint64()
		nodes := ringNodes(n)
		r := buildRing(nodes, seed)
		before := owners(r)

		added := fmt.Sprintf("10.0.1.%d:7600", trial+1)
		r.Add(added)
		after := owners(r)
		moved := 0
		for fn, was := range before {
			now := after[fn]
			if now != was {
				if now != added {
					t.Fatalf("trial %d (n=%d seed=%d): fn %d moved %s → %s, not to the added node",
						trial, n, seed, fn, was, now)
				}
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("trial %d: added node %s took no keys", trial, added)
		}
	}
}

// TestRingDeterministicSeeding pins that placement is a pure function
// of (seed, member set): insertion order is irrelevant, distinct seeds
// diverge.
func TestRingDeterministicSeeding(t *testing.T) {
	nodes := ringNodes(8)
	reversed := make([]string, len(nodes))
	for i, n := range nodes {
		reversed[len(nodes)-1-i] = n
	}
	a := buildRing(nodes, 99)
	b := buildRing(reversed, 99)
	c := buildRing(nodes, 100)
	diverged := false
	for fn := 0; fn < 1<<16; fn++ {
		if a.Lookup(uint16(fn)) != b.Lookup(uint16(fn)) {
			t.Fatalf("fn %d: same seed, different insertion order → different owner", fn)
		}
		if a.Lookup(uint16(fn)) != c.Lookup(uint16(fn)) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 99 and 100 produced identical placement over the whole key space")
	}
}

// TestRingLookupN pins the replica contract: distinct nodes, primary
// first, count clamped to the member count, and appending to a
// non-empty dst keeps its prefix and de-duplicates only what it
// appended.
func TestRingLookupN(t *testing.T) {
	r := buildRing(ringNodes(4), 5)
	for fn := uint16(0); fn < 512; fn++ {
		reps := r.LookupN(nil, fn, 3)
		if len(reps) != 3 {
			t.Fatalf("fn %d: got %d replicas, want 3", fn, len(reps))
		}
		if reps[0] != r.Lookup(fn) {
			t.Fatalf("fn %d: primary %s != Lookup %s", fn, reps[0], r.Lookup(fn))
		}
		seen := map[string]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Fatalf("fn %d: duplicate replica %s", fn, n)
			}
			seen[n] = true
		}
		// The prefix holds the primary, so only an unchecked prefix
		// lets it be appended again.
		prefix := []string{"x", reps[0]}
		got := r.LookupN(prefix, fn, 3)
		if want := append([]string{"x", reps[0]}, reps...); !slices.Equal(got, want) {
			t.Fatalf("fn %d: LookupN onto %v = %v, want %v", fn, prefix, got, want)
		}
	}
	if got := r.LookupN(nil, 7, 99); len(got) != 4 {
		t.Fatalf("LookupN over-asks: got %d, want clamp to 4", len(got))
	}
	dst := []string{"kept"}
	if got := router.NewRing(0, 1).LookupN(dst, 7, 2); !slices.Equal(got, dst) {
		t.Fatalf("empty ring LookupN = %v, want dst %v unchanged", got, dst)
	}
}
