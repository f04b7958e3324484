package main

import (
	"context"
	"slices"
	"time"

	"agilefpga/internal/metrics"
	"agilefpga/internal/sim"
	"agilefpga/internal/wire"
)

// chainProbeCalls is how many chained calls price client.chain_call_us.
const chainProbeCalls = 256

// traced is the per-layer side of one workload: a closed-loop round
// with a metrics registry attached (counts, modelled phases, tail and
// host diagnostics), then the single-caller ladder. None of it feeds
// an end-to-end figure.
type traced struct {
	tally
	values map[string]float64
	spans  []span
}

func runTraced(ctx context.Context, w *workload, cfg config) (*traced, error) {
	trace, err := genTrace(w, cfg.seed, cfg.traceLen(w))
	if err != nil {
		return nil, err
	}
	tr := &traced{values: make(map[string]float64, len(perLayer))}
	// One long round instead of many short ones: the tail percentiles
	// need the samples, and nothing here is gated.
	counted := time.Duration(cfg.seconds / 4 * float64(time.Second))
	if err := tr.counts(ctx, w, trace, counted); err != nil {
		return nil, err
	}
	n := w.ladderOps
	if cfg.ladderOps > 0 {
		n = cfg.ladderOps
	}
	ops := append(primeOps(w, trace), trace[:min(n, len(trace))]...)
	l := newLadder(w, ops)
	if err := l.run(ctx, &tr.tally, tr.values); err != nil {
		return nil, err
	}
	tr.spans = l.spans
	if w.chainProbe != nil {
		if err := tr.chainProbe(ctx, w, cfg.seed); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// counts runs one warmed closed-loop round and reads what the layers
// counted over it: public Stats() deltas, and from the registry the two
// counts no Stats() exposes.
func (tr *traced) counts(ctx context.Context, w *workload, trace []op, dur time.Duration) error {
	reg := metrics.NewRegistry()
	s, su, err := setUp(ctx, w, trace, reg)
	if err != nil {
		return err
	}
	defer s.close()
	tr.add(su.tally)
	before, _, _ := s.cardStats()
	retries := s.retries.Load()
	coalesced, served, refused := registryCounts(reg)

	r := runLoad(ctx, s, trace, dur)
	tr.add(r.tally)

	after, perCard, perBackend := s.cardStats()
	v := tr.values
	reqs := float64(max(after.Requests-before.Requests, 1))
	misses := after.Misses - before.Misses
	dcHits := after.DecompCacheHits - before.DecompCacheHits
	v["mcu.hit_rate"] = float64(after.Hits-before.Hits) / reqs
	v["mcu.evictions_per_kop"] = 1e3 * float64(after.Evictions-before.Evictions) / reqs
	v["mcu.frames_loaded_per_op"] = float64(after.FramesLoaded-before.FramesLoaded) / reqs
	v["mcu.dcache_hit_rate"] = ratio(dcHits, misses)
	v["mcu.comp_bytes_per_load"] = ratio(after.CompConfigBytes-before.CompConfigBytes, misses-dcHits)
	v["cluster.imbalance"] = imbalance(perCard)
	v["router.backend_imbalance"] = imbalance(perBackend)
	coalesced2, served2, refused2 := registryCounts(reg)
	v["cluster.coalesced_frac"] = float64(coalesced2-coalesced) / reqs
	v["client.retries_per_kop"] = 1e3 * r.perOp(float64(s.retries.Load()-retries))
	v["server.refused_frac"] = ratio(refused2-refused, served2-served)
	for p := sim.PhaseROM; p <= sim.PhasePipeStall; p++ {
		v["virt."+p.String()+"_us"] = virtUS(after.Phases.Get(p)-before.Phases.Get(p), after.Requests-before.Requests)
	}
	v["client.p99_us"], v["client.beyond_p99"] = r.p99, float64(r.beyond99)
	v["client.p999_us"], v["client.beyond_p999"] = r.p999, float64(r.beyond999)
	v["host.cpu_us_per_op"] = r.perOp(float64(r.cpu.Microseconds()))
	v["host.alloc_bytes_per_op"] = r.perOp(float64(r.allocBytes))
	v["host.gc_cycles"] = float64(r.gcCycles)
	v["host.peak_heap_mb"] = r.heapSysMB
	return s.checkInvariants()
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// imbalance is max/mean of the requests each card (or backend) served;
// 1 is a perfect split.
func imbalance(served []uint64) float64 {
	var sum uint64
	for _, n := range served {
		sum += n
	}
	if sum == 0 {
		return 0
	}
	return float64(slices.Max(served)) * float64(len(served)) / float64(sum)
}

// registryCounts reads the counts only the registry has: jobs the card
// workers coalesced, requests the servers answered, and those of them
// refused for lack of capacity.
func registryCounts(reg *metrics.Registry) (coalesced, served, refused uint64) {
	exhausted := wire.StatusResourceExhausted.String()
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "agile_cluster_coalesced_jobs_total":
			coalesced += uint64(s.Value)
		case "agile_server_requests_total":
			served += uint64(s.Value)
			if s.Label("status") == exhausted {
				refused += uint64(s.Value)
			}
		}
	}
	return coalesced, served, refused
}

// chainProbe prices one chained call through the client: the stage
// list crosses the wire and PCI once, intermediates stay on the card.
func (tr *traced) chainProbe(ctx context.Context, w *workload, seed uint64) error {
	p, err := newPool(sim.NewRNG(seed), w.chainProbe, w.payload)
	if err != nil {
		return err
	}
	s, err := newStack(w, layerClient, nil)
	if err != nil {
		return err
	}
	defer s.close()
	us := make([]float64, 0, chainProbeCalls)
	for i := range chainProbeCalls + 1 {
		item := i % len(p.in)
		o := op{kind: kindChain, fns: p.fns, in: p.in[item : item+1], want: p.want[item : item+1]}
		t0 := now()
		out, _, err := s.direct[0].CallChain(ctx, o.fns, o.in[0])
		t1 := now()
		if err == nil {
			err = verify(&o, 0, out)
		}
		tr.record(&o, err)
		if i > 0 { // the first call loads both stages
			us = append(us, float64(t1.Sub(t0).Nanoseconds())/1e3)
		}
	}
	tr.values["client.chain_call_us"] = median(us)
	return s.checkInvariants()
}
