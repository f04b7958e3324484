package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"agilefpga/internal/client"
	"agilefpga/internal/cluster"
	"agilefpga/internal/core"
	"agilefpga/internal/fpga"
	"agilefpga/internal/mcu"
	"agilefpga/internal/metrics"
	"agilefpga/internal/router"
	"agilefpga/internal/server"
)

// layer names how much of the serving stack a stack builds: the rungs
// of the traced ladder, and the module names the per-layer metrics use.
type layer int

const (
	layerCore    layer = iota // bare cards, provisioned like a cluster's
	layerCluster              // + one affinity cluster per backend
	layerServer               // + a TCP server per backend and a raw connection to each
	layerClient               // + a mux client per backend instead of the raw connection
	layerRouter               // + the router in front and one mux client to it
)

// top is the outermost layer the workload's traffic enters.
func (w *workload) top() layer {
	switch {
	case w.router:
		return layerRouter
	case w.backends > 0:
		return layerClient
	}
	return layerCore
}

// errWrongOutput marks a response that differs from the algos host
// reference — the one failure that makes a run incorrect, not just slow.
var errWrongOutput = errors.New("output differs from the algos reference")

// backend is one agilenetd-shaped node: a cluster behind a server.
type backend struct {
	cluster *cluster.Cluster
	server  *server.Server
	addr    string
	served  chan error // Serve's return
}

// stack is the real serving stack, in-process on loopback TCP, built
// up to some layer. Only the fields of the layers built are set.
type stack struct {
	w        *workload
	cards    [][]*core.CoProcessor // layerCore only: [backend][card]
	backends []*backend
	conns    []net.Conn       // layerServer only
	direct   []*client.Client // layerClient only
	router   *router.Router
	routed   chan error     // router Serve's return
	front    *client.Client // layerRouter only
	retries  atomic.Uint64
}

// cardConfig is the agilenetd default card: 32×40 fabric (about 4 of
// the 16 bank functions fit), framediff, LRU, scatter placement.
func (w *workload) cardConfig(reg *metrics.Registry) core.Config {
	return core.Config{
		Geometry:         fpga.Geometry{Rows: 32, Cols: 40},
		DecodeCacheBytes: w.dcacheBytes,
		Metrics:          reg,
	}
}

// newStack builds w's topology up to layer top. reg is nil except in
// the traced run: end-to-end figures are taken with every registry and
// tracer off.
func newStack(w *workload, top layer, reg *metrics.Registry) (s *stack, err error) {
	s = &stack{w: w}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	cfg := w.cardConfig(reg)
	if top == layerCore {
		for range max(w.backends, 1) {
			var row []*core.CoProcessor
			for range max(w.cards, 1) {
				cp, err := core.New(cfg)
				if err != nil {
					return nil, err
				}
				if _, err := cp.InstallBank(); err != nil {
					return nil, err
				}
				row = append(row, cp)
			}
			s.cards = append(s.cards, row)
		}
		return s, nil
	}
	copts := client.Options{
		PoolSize:   callers,
		JitterSeed: 2005,
		OnRetry:    func(int, error) { s.retries.Add(1) },
	}
	var addrs []string
	for range w.backends {
		b := &backend{}
		s.backends = append(s.backends, b)
		if b.cluster, err = cluster.New(w.cards, cluster.ModeAffinity, cfg); err != nil {
			return nil, err
		}
		if top == layerCluster {
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		b.addr = ln.Addr().String()
		b.server = server.New(b.cluster, server.Options{Metrics: reg})
		b.served = make(chan error, 1)
		go func() { b.served <- b.server.Serve(ln) }()
		addrs = append(addrs, b.addr)
		switch top {
		case layerServer:
			c, err := net.Dial("tcp", b.addr)
			if err != nil {
				return nil, err
			}
			s.conns = append(s.conns, c)
		case layerClient:
			c, err := client.Dial(b.addr, copts)
			if err != nil {
				return nil, err
			}
			s.direct = append(s.direct, c)
		}
	}
	if top != layerRouter {
		return s, nil
	}
	seed, err := pinSeed(w, addrs)
	if err != nil {
		return nil, err
	}
	s.router, err = router.New(addrs, router.Options{
		Seed:    seed,
		Backend: client.Options{PoolSize: callers},
		Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.routed = make(chan error, 1)
	go func() { s.routed <- s.router.Serve(ln) }()
	s.front, err = client.Dial(ln.Addr().String(), copts)
	return s, err
}

// pinSeed finds the ring seed under which the router sends every
// catalogue function to addrs[w.backendOf(fn)]. The ring hashes node
// addresses, and loopback ports are ephemeral: without this, which
// functions share a backend — and so the load split — would change
// from run to run.
func pinSeed(w *workload, addrs []string) (uint64, error) {
seeds:
	for seed := uint64(1); seed < 1<<20; seed++ {
		ring := router.NewRing(0, seed)
		for _, a := range addrs {
			ring.Add(a)
		}
		for _, id := range w.ids {
			if ring.Lookup(id) != addrs[w.backendOf(id)] {
				continue seeds
			}
		}
		return seed, nil
	}
	return 0, fmt.Errorf("%s: no ring seed gives the fixed function split", w.name)
}

// close tears the stack down outermost first — client, router, server,
// cluster — and returns once every goroutine it started has exited.
func (s *stack) close() {
	if s.front != nil {
		s.front.Close()
	}
	for _, c := range s.direct {
		c.Close()
	}
	for _, c := range s.conns {
		c.Close()
	}
	if s.router != nil {
		s.router.Close()
		if s.routed != nil {
			<-s.routed
		}
	}
	for _, b := range s.backends {
		if b.server != nil {
			b.server.Close()
			<-b.served
		}
		if b.cluster != nil {
			b.cluster.Close()
		}
	}
}

// clientFor is the mux client o enters the stack through.
func (s *stack) clientFor(o *op) *client.Client {
	if s.front != nil {
		return s.front
	}
	return s.direct[s.w.backendOf(o.fns[0])]
}

// do performs one op through the stack's top layer and verifies every
// output against the host reference.
func (s *stack) do(ctx context.Context, o *op) error {
	if s.cards != nil {
		return coreDo(s.cards[0][0], o)
	}
	out, _, err := s.clientFor(o).Call(ctx, o.fns[0], o.in[0])
	if err != nil {
		return err
	}
	return verify(o, 0, out)
}

func verify(o *op, item int, out []byte) error {
	if !bytes.Equal(out, o.want[item]) {
		return errWrongOutput
	}
	return nil
}

func verifyAll(o *op, outs [][]byte) error {
	if len(outs) != len(o.want) {
		return errWrongOutput
	}
	for i, out := range outs {
		if err := verify(o, i, out); err != nil {
			return err
		}
	}
	return nil
}

// coreDo performs any op kind on a bare card through the host driver.
func coreDo(cp *core.CoProcessor, o *op) error {
	switch o.kind {
	case kindBatch:
		res, err := cp.CallBatchID(o.fns[0], o.in)
		if err != nil {
			return err
		}
		return verifyAll(o, res.Outputs)
	case kindChain:
		res, err := cp.CallChainID(o.fns, o.in[0])
		if err != nil {
			return err
		}
		return verify(o, 0, res.Output)
	case kindChainBatch:
		res, err := cp.CallChainBatchID(o.fns, o.in)
		if err != nil {
			return err
		}
		return verifyAll(o, res.Outputs)
	}
	res, err := cp.CallID(o.fns[0], o.in[0])
	if err != nil {
		return err
	}
	return verify(o, 0, res.Output)
}

// cardStats sums the mini-OS counters the benchmark reads over every
// card, and lists the requests each card and each backend served.
func (s *stack) cardStats() (total mcu.Stats, perCard, perBackend []uint64) {
	add := func(st mcu.Stats) {
		total.Requests += st.Requests
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
		total.FramesLoaded += st.FramesLoaded
		total.CompConfigBytes += st.CompConfigBytes
		total.DecompCacheHits += st.DecompCacheHits
		total.Phases.AddAll(st.Phases)
	}
	for _, row := range s.cards {
		var n uint64
		for _, cp := range row {
			st := cp.Stats()
			add(st)
			perCard = append(perCard, st.Requests)
			n += st.Requests
		}
		perBackend = append(perBackend, n)
	}
	for _, b := range s.backends {
		st := b.cluster.Stats()
		add(st.Total)
		perCard = append(perCard, st.PerCardRequests...)
		perBackend = append(perBackend, st.Total.Requests)
	}
	return total, perCard, perBackend
}

// checkInvariants verifies the mini-OS bookkeeping of every card.
func (s *stack) checkInvariants() error {
	for _, row := range s.cards {
		for _, cp := range row {
			if err := cp.CheckInvariants(); err != nil {
				return err
			}
		}
	}
	for _, b := range s.backends {
		if err := b.cluster.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}
