package agilefpga

import (
	"time"

	"agilefpga/internal/algos"
	"agilefpga/internal/cluster"
	"agilefpga/internal/sched"
)

// Dispatch modes for Cluster.
const (
	// ModeReplicate installs the whole bank on every card and routes
	// round-robin.
	ModeReplicate = cluster.ModeReplicate
	// ModePartition gives each function one home card.
	ModePartition = cluster.ModePartition
	// ModeAffinity pins each function to the least-loaded card on first
	// use and routes it there ever after.
	ModeAffinity = cluster.ModeAffinity
)

// Job is one request for Cluster.Serve: a bank function by name and its
// input.
type Job struct {
	Function string
	Input    []byte
}

// ServeResult reports a drained job set.
type ServeResult struct {
	// Outputs holds each job's output, in job order.
	Outputs [][]byte
	// Hits counts jobs served without reconfiguration.
	Hits int
	// Elapsed is wall-clock drain time (host-side, not virtual).
	Elapsed time.Duration
}

// Pending is an in-flight asynchronous call (see Cluster.Submit).
type Pending struct {
	inner *cluster.Pending
}

// Wait blocks until the call completes, returning the result and the
// serving card.
func (p *Pending) Wait() (*Result, int, error) {
	res, card, err := p.inner.Wait()
	if err != nil {
		return nil, card, err
	}
	return resultOf(res), card, nil
}

// Cluster is a set of simulated cards behind one dispatcher, with the
// whole algorithm bank provisioned according to the mode. All methods
// are safe for concurrent use; cards execute in parallel (one lock per
// card) while each card's virtual timing stays deterministic.
type Cluster struct {
	inner *cluster.Cluster
}

// NewCluster builds a cluster of n cards sharing one Config.
func NewCluster(n int, mode string, cfg Config) (*Cluster, error) {
	card, err := cfg.card()
	if err != nil {
		return nil, err
	}
	inner, err := cluster.New(n, mode, card)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// Cards reports the cluster size.
func (cl *Cluster) Cards() int { return cl.inner.Cards() }

// Mode reports the dispatch mode.
func (cl *Cluster) Mode() string { return cl.inner.Mode() }

// Call executes the named function synchronously on whichever card the
// dispatcher routes it to, returning the result and the card index.
func (cl *Cluster) Call(name string, input []byte) (*Result, int, error) {
	f, err := algos.ByName(name)
	if err != nil {
		return nil, -1, err
	}
	res, card, err := cl.inner.Call(f.ID(), input)
	if err != nil {
		return nil, card, err
	}
	return resultOf(res), card, nil
}

// Submit enqueues the named function asynchronously on its routed
// card's bounded queue and returns immediately; Wait collects the
// result. Consecutive same-function jobs on one card are coalesced into
// the pipelined batch path.
func (cl *Cluster) Submit(name string, input []byte) *Pending {
	f, err := algos.ByName(name)
	if err != nil {
		return &Pending{inner: cluster.Failed(err)}
	}
	return &Pending{inner: cl.inner.Submit(f.ID(), input)}
}

// Serve drains jobs through the async serving layer with the given
// number of submitter goroutines, returning outputs in job order.
func (cl *Cluster) Serve(jobs []Job, workers int) (*ServeResult, error) {
	inner := make([]sched.Job, len(jobs))
	for i, j := range jobs {
		f, err := algos.ByName(j.Function)
		if err != nil {
			return nil, err
		}
		inner[i] = sched.Job{Fn: f.ID(), Input: j.Input, Seq: i}
	}
	res, err := cl.inner.Serve(inner, workers)
	if err != nil {
		return nil, err
	}
	return &ServeResult{Outputs: res.Outputs, Hits: res.Hits, Elapsed: res.Elapsed}, nil
}

// ClusterStats aggregates the cards' behaviour.
type ClusterStats struct {
	Stats
	// PerCardRequests exposes the load balance the dispatcher achieved.
	PerCardRequests []uint64
}

// Stats aggregates over all cards.
func (cl *Cluster) Stats() ClusterStats {
	st := cl.inner.Stats()
	return ClusterStats{Stats: statsOf(st.Total), PerCardRequests: st.PerCardRequests}
}

// Close shuts the serving layer down, draining queued jobs. Synchronous
// Call keeps working afterwards; Submit must not race Close.
func (cl *Cluster) Close() { cl.inner.Close() }

// CheckInvariants verifies every card's mini-OS bookkeeping.
func (cl *Cluster) CheckInvariants() error { return cl.inner.CheckInvariants() }
