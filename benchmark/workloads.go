package main

import (
	"fmt"
	"slices"

	"agilefpga/internal/algos"
	"agilefpga/internal/sim"
	gen "agilefpga/internal/workload"
)

// traceOps is the default length of a workload's generated trace:
// played once as the fixed warm-up pass, then cycled for the timed
// rounds.
const traceOps = 4096

// workload is one fixed traffic mix against one fixed topology. The
// names are the benchmark's vocabulary: later changes cite them.
type workload struct {
	name string
	why  string
	// fns is the catalogue in popularity order (rank 0 hottest under
	// zipf). The order is fixed, never seeded, so every seed loads the
	// cards alike and only the draw sequence and payload bytes change.
	fns  []string
	ids  []uint16 // fns resolved against the bank
	zipf bool     // Zipf s=1.1 over fns; otherwise uniform
	// payload is the request size in bytes; 0 sends one natural block
	// (BlockBytes) of the function called.
	payload int
	// Topology: backends × cards behind a server each, fronted by a
	// router when router is set. backends == 0 is the bare card, no
	// network.
	backends, cards int
	router          bool
	dcacheBytes     int
	// mix adds, after every mixWindow single calls, one batch, one
	// chain and one chain-batch (sim-paper-mix).
	mix bool
	// traceOps and ladderOps are the trace length and how many of its
	// ops the traced ladder replays per rung; both smaller where one op
	// costs a millisecond, to keep a run inside its time budget.
	traceOps, ladderOps int
	// chainProbe, when set, is a stage list the traced run also prices
	// as one chained call through the client.
	chainProbe []string
}

var hotSmall = []string{"sha256", "crc32", "fft64", "md5"}

// bankNames is the whole bank in algos.Bank() order.
func bankNames() []string {
	var names []string
	for _, f := range algos.Bank() {
		names = append(names, f.Name())
	}
	return names
}

var workloads = resolve([]*workload{
	{
		name: "net-hot-small",
		why:  "256 B calls to 4 resident functions: the card is ~10% of the round trip, so client/wire/server/cluster hand-offs set the numbers and algos must not",
		fns:  hotSmall, payload: 256, backends: 1, cards: 2, ladderOps: 2048,
		chainProbe: []string{"sha256", "crc32"},
	},
	{
		name: "net-cold-zipf",
		why:  "16 functions, Zipf 1.1, decode cache off: ~1 in 4 calls reloads a bitstream, so mcu/compress/bitstream/fpga set throughput, p90 and nearly all allocations",
		fns:  bankNames(), zipf: true, backends: 1, cards: 2, ladderOps: 2048,
	},
	{
		name: "net-compute-crypto",
		why:  "1 KiB aes128/des/tdes, all resident: the behavioural cores are over 90% of the round trip, so only algos moves it and edge changes must not",
		fns:  []string{"aes128", "des", "tdes"}, payload: 1024, backends: 1, cards: 2, traceOps: 1024, ladderOps: 384,
	},
	{
		name: "fleet-hot-small",
		why:  "net-hot-small's exact traffic through a router to 2 backends x 1 card: the difference to net-hot-small is the router hop's cost",
		fns:  hotSmall, payload: 256, backends: 2, cards: 1, router: true, ladderOps: 2048,
	},
	{
		name: "sim-paper-mix",
		why:  "no network: one bare card, decode cache on, batch and chain lanes beside single calls: simulator speed, and edge (wire/client/server/router) changes must not move it",
		fns:  bankNames(), zipf: true, dcacheBytes: 1 << 20, mix: true, ladderOps: 2048,
	},
})

func resolve(ws []*workload) []*workload {
	for _, w := range ws {
		for _, name := range w.fns {
			w.ids = append(w.ids, mustFn(name).ID())
		}
		if w.traceOps == 0 {
			w.traceOps = traceOps
		}
	}
	return ws
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// backendOf is the backend a function's calls land on. Fleet routing
// is pinned to this split (see newStack), so every rung of the ladder
// and every run sends a function to the same place.
func (w *workload) backendOf(fn uint16) int {
	if w.backends < 2 {
		return 0
	}
	return slices.Index(w.ids, fn) % w.backends
}

type opKind uint8

const (
	kindCall opKind = iota
	kindBatch
	kindChain
	kindChainBatch
)

// op is one generated request with the reference output of every item.
// Ops share payloads and references from a small pool; the system under
// test keeps no result cache, so a repeated payload costs what a fresh
// one does.
type op struct {
	kind opKind
	fns  []uint16 // the function, or the chain's stage list
	in   [][]byte // one input per item
	want [][]byte // algos host reference per item
}

// ops counts the op's items: a 16-item batch is 16 operations.
func (o *op) ops() int { return len(o.in) }

func (o *op) inBytes() int {
	n := 0
	for _, in := range o.in {
		n += len(in)
	}
	return n
}

const (
	poolSize   = 8  // distinct payloads per (function | chain)
	mixWindow  = 64 // single calls between sim-paper-mix's batch/chain ops
	mixItems   = 16
	mixPayload = 1024
)

var (
	mixBatchFn = []string{"sha256"}
	mixChain   = []string{"fir16", "fft64"}
)

func mustFn(name string) *algos.Function {
	f, err := algos.ByName(name)
	if err != nil {
		panic(err) // workload tables name only bank functions
	}
	return f
}

// pool holds poolSize payloads for one stage list with their reference
// outputs: the composed algos.Exec of every stage.
type pool struct {
	fns      []uint16
	in, want [][]byte
}

func newPool(rng *sim.RNG, stages []string, size int) (*pool, error) {
	p := &pool{}
	for _, name := range stages {
		p.fns = append(p.fns, mustFn(name).ID())
	}
	for range poolSize {
		in := make([]byte, size)
		for i := range in {
			in[i] = byte(rng.Uint64())
		}
		want := in
		for _, name := range stages {
			var err error
			if want, err = mustFn(name).Exec(want); err != nil {
				return nil, fmt.Errorf("reference %v: %w", stages, err)
			}
		}
		p.in, p.want = append(p.in, in), append(p.want, want)
	}
	return p, nil
}

// take builds an op of n items drawn from the pool.
func (p *pool) take(rng *sim.RNG, kind opKind, n int) op {
	o := op{kind: kind, fns: p.fns}
	for range n {
		i := rng.Intn(len(p.in))
		o.in, o.want = append(o.in, p.in[i]), append(o.want, p.want[i])
	}
	return o
}

// genTrace generates w's trace of n requests from seed alone: the same
// seed gives the same trace, and the stack under test only ever sees
// the generated inputs. The function sequence comes from
// internal/workload.
func genTrace(w *workload, seed uint64, n int) ([]op, error) {
	var fns gen.Generator
	var err error
	if w.zipf {
		fns, err = gen.NewZipf(w.ids, 1.1, seed)
	} else {
		fns, err = gen.NewUniform(w.ids, seed)
	}
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed ^ 0xA61E_BE9C)
	pools := make(map[uint16]*pool, len(w.ids))
	for _, name := range w.fns {
		size := w.payload
		if size == 0 {
			size = mustFn(name).BlockBytes
		}
		p, err := newPool(rng, []string{name}, size)
		if err != nil {
			return nil, err
		}
		pools[p.fns[0]] = p
	}
	var batch, chain *pool
	if w.mix {
		if batch, err = newPool(rng, mixBatchFn, mixPayload); err != nil {
			return nil, err
		}
		if chain, err = newPool(rng, mixChain, mixPayload); err != nil {
			return nil, err
		}
	}
	trace := make([]op, 0, n+3*n/mixWindow)
	for i := 1; i <= n; i++ {
		trace = append(trace, pools[fns.Next()].take(rng, kindCall, 1))
		if w.mix && i%mixWindow == 0 {
			trace = append(trace,
				batch.take(rng, kindBatch, mixItems),
				chain.take(rng, kindChain, 1),
				chain.take(rng, kindChainBatch, mixItems))
		}
	}
	return trace, nil
}

// primeOps is one call per catalogue function, in catalogue order. Run
// by a single caller before anything concurrent, it makes the
// cluster's first-sight affinity pins — and so which functions share a
// card — the same on every run.
func primeOps(w *workload, trace []op) []op {
	var prime []op
	for _, id := range w.ids {
		for i := range trace {
			if trace[i].kind == kindCall && trace[i].fns[0] == id {
				prime = append(prime, trace[i])
				break
			}
		}
	}
	return prime
}
