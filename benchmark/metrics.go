package main

// metricDef is one line of the benchmark's contract. BENCHMARK.json at
// the repository root carries the same tables; a test keeps them equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression. Per-layer
	// metrics explain; they are not gated.
	Bound float64 `json:"bound,omitempty"`
	// Clock says which of the system's two clocks the number is read
	// from: "host" (wall clock of simulator + serving stack, noisy),
	// "virtual" (modelled card time, repeats exactly at one seed)
	// or "" for a pure count.
	Clock string `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// figure is the value reported for an end-to-end metric from its
// per-round (or per-set-up) samples: the quartile on the metric's
// better side — the upper quartile of ops/s, the lower quartile of a
// latency. Interference on a shared machine only ever makes a round
// slower, and it comes in bursts of a few rounds; measured over 14 runs
// of net-hot-small the better-side quartile spread 1.7% (p50) and 3.6%
// (ops/s) between runs where the median spread 2.7% and 5.8%, and in a
// noisier hour the median left its bound (27%) while a quarter of the
// rounds still ran undisturbed. Unlike the best round, a quartile does
// not reward one lucky round.
func (m metricDef) figure(s summary) float64 {
	if m.Better == higher {
		return s.Q3
	}
	return s.Q1
}

// endToEnd is what a user of the system sees. failed operations are
// carried by the result line's attempted/failed/correct fields rather
// than a metric: a figure that is 0 on every good run cannot be
// bounded as a share of its median.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", higher, 0.25, "host"},
	{"p50_us", "us", lower, 0.25, "host"},
	{"p90_us", "us", lower, 0.25, "host"},
	{"allocs_per_op", "1/op", lower, 0.15, "host"},
	{"virt_us_per_op", "us", lower, 0.15, "virtual"},
	{"setup_s", "s", lower, 0.25, "host"},
}

// perLayer names every layer metric; module names are the layer names.
// A metric that does not apply to a workload (router.* without a
// router, mcu.miss_us with nothing evicted) reads 0 there.
var perLayer = []metricDef{
	// Ladder: host time by layer, single caller.
	{"router.self_us", "us", lower, 0, "host"},
	{"client.self_us", "us", lower, 0, "host"},
	{"server.self_us", "us", lower, 0, "host"},
	{"cluster.self_us", "us", lower, 0, "host"},
	{"core.self_us", "us", lower, 0, "host"},
	{"mcu.self_us", "us", lower, 0, "host"},
	{"mcu.hit_us", "us", lower, 0, "host"},
	{"mcu.miss_us", "us", lower, 0, "host"},
	{"algos.exec_us", "us", lower, 0, "host"},
	{"algos.exec_MBps", "MB/s", higher, 0, "host"},
	{"core.batch_us_per_item", "us", lower, 0, "host"},
	{"core.chain_us", "us", lower, 0, "host"},
	{"core.chain_batch_us_per_item", "us", lower, 0, "host"},
	{"client.chain_call_us", "us", lower, 0, "host"},
	{"ladder.top_us", "us", lower, 0, "host"},
	{"ladder.closure", "ratio", higher, 0, "host"},
	// Stand-alone component rungs, one span per cold load.
	{"wire.codec_ns_per_op", "ns", lower, 0, "host"},
	{"wire.bytes_per_op", "B", lower, 0, ""},
	{"compress.decode_us_per_load", "us", lower, 0, "host"},
	{"compress.decode_MBps", "MB/s", higher, 0, "host"},
	{"bitstream.assemble_us_per_load", "us", lower, 0, "host"},
	{"fpga.port_write_us_per_load", "us", lower, 0, "host"},
	{"mcu.minios_self_us", "us", lower, 0, "host"},
	// Counts over one closed-loop round.
	{"mcu.hit_rate", "ratio", higher, 0, ""},
	{"mcu.evictions_per_kop", "1/kop", lower, 0, ""},
	{"mcu.frames_loaded_per_op", "1/op", lower, 0, ""},
	{"mcu.dcache_hit_rate", "ratio", higher, 0, ""},
	{"mcu.comp_bytes_per_load", "B", lower, 0, ""},
	{"cluster.imbalance", "ratio", lower, 0, ""},
	{"cluster.coalesced_frac", "ratio", higher, 0, ""},
	{"client.retries_per_kop", "1/kop", lower, 0, ""},
	{"server.refused_frac", "ratio", lower, 0, ""},
	{"router.backend_imbalance", "ratio", lower, 0, ""},
	// Modelled phases, virtual µs per card request.
	{"virt.rom_us", "us", lower, 0, "virtual"},
	{"virt.decompress_us", "us", lower, 0, "virtual"},
	{"virt.configure_us", "us", lower, 0, "virtual"},
	{"virt.cache_us", "us", lower, 0, "virtual"},
	{"virt.pipestall_us", "us", lower, 0, "virtual"},
	{"virt.datain_us", "us", lower, 0, "virtual"},
	{"virt.exec_us", "us", lower, 0, "virtual"},
	{"virt.dataout_us", "us", lower, 0, "virtual"},
	{"virt.overhead_us", "us", lower, 0, "virtual"},
	{"virt.pci_us", "us", lower, 0, "virtual"},
	// Diagnostics: too noisy to gate.
	{"client.p99_us", "us", lower, 0, "host"},
	{"client.p999_us", "us", lower, 0, "host"},
	{"client.beyond_p99", "count", higher, 0, ""},
	{"client.beyond_p999", "count", higher, 0, ""},
	{"host.cpu_us_per_op", "us", lower, 0, "host"},
	{"host.alloc_bytes_per_op", "B", lower, 0, "host"},
	{"host.gc_cycles", "count", lower, 0, "host"},
	{"host.peak_heap_mb", "MB", lower, 0, "host"},
	{"trace.overhead_frac", "ratio", lower, 0, "host"},
}
