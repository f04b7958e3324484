// Package router is the fleet-scale serving tier: a front-end that
// speaks the wire protocol on both sides and routes each call to one
// of N backend agilenetd nodes by consistent-hash function affinity —
// the network generalisation of cluster ModeAffinity. Pinning a
// function id to a stable node keeps that node's cards resident for
// the function (the E15 partition effect), so the fleet-wide hit rate
// tracks the single-node ceiling instead of collapsing to random
// placement. Hot functions spill to ring replicas when the primary's
// in-flight count crosses a threshold, failed backends are ejected and
// probed back with jittered backoff, and deadlines plus v2 trace
// context ride through the hop unchanged.
package router

import (
	"slices"
	"sort"
)

// DefaultVNodes is the virtual-node count per backend. 128 points per
// node keeps the per-node key-share standard deviation under ~10% of
// fair share while the ring stays small enough to rebuild on every
// membership change (16 nodes × 128 points ≈ 2k entries).
const DefaultVNodes = 128

// Ring is a consistent-hash ring mapping the 16-bit function-id space
// onto named nodes via virtual points. Placement is a pure function of
// (seed, member set): insertion order never matters, so two routers
// configured alike route alike. Not internally locked — the Router
// guards it with its own mutex.
type Ring struct {
	vnodes int
	seed   uint64
	nodes  map[string]struct{}
	points []point // sorted by hash; ties broken by node name
}

type point struct {
	hash uint64
	node string
}

// NewRing builds an empty ring. vnodes <= 0 selects DefaultVNodes;
// seed perturbs every point and key hash, so distinct seeds give
// statistically independent placements.
func NewRing(vnodes int, seed uint64) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, seed: seed, nodes: make(map[string]struct{})}
}

// splitmix64 is the finalising mixer used for every hash on the ring
// (the same construction internal/trace uses for span ids): cheap,
// well-distributed, and deterministic across platforms.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hashNode is FNV-1a 64 over the node name, feeding splitmix64 so
// similar names (host:7001, host:7002) land far apart.
func hashNode(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// keyHash places a function id on the ring.
func (r *Ring) keyHash(fn uint16) uint64 {
	return splitmix64(r.seed ^ (uint64(fn) + 0xA61E0000))
}

// Add inserts a node (idempotent). Only keys whose nearest clockwise
// point becomes one of the new node's vnodes move — everything else
// keeps its owner, which is the property that makes membership churn
// cheap for decode caches downstream.
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	base := splitmix64(r.seed ^ hashNode(node))
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{hash: splitmix64(base + uint64(v)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Nodes returns the members sorted by name.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the node owning fn, or "" on an empty ring.
func (r *Ring) Lookup(fn uint16) string {
	var one [1]string
	if ns := r.LookupN(one[:0], fn, 1); len(ns) > 0 {
		return ns[0]
	}
	return ""
}

// LookupN appends up to n distinct nodes for fn to dst in ring order:
// the primary first, then the replicas met walking clockwise. Only the
// appended names are checked for distinctness, so dst's prefix is kept
// as it is. The replica set is as stable under membership change as
// the primary — a node's departure shifts only successors, so spilled
// heat is not wasted.
func (r *Ring) LookupN(dst []string, fn uint16, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return dst
	}
	n = min(n, len(r.nodes))
	h := r.keyHash(fn)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	base := len(dst)
	for j := 0; j < len(r.points) && len(dst)-base < n; j++ {
		if node := r.points[(i+j)%len(r.points)].node; !slices.Contains(dst[base:], node) {
			dst = append(dst, node)
		}
	}
	return dst
}
