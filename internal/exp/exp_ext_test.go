package exp

// Shape tests for the extension experiments E9–E12.

import "testing"

func TestE9DiffReloadShape(t *testing.T) {
	r, err := RunE9()
	if err != nil {
		t.Fatal(err)
	}
	for name, full := range r.FullReload {
		diffed := r.DiffReload[name]
		if diffed >= full {
			t.Errorf("%s: diff reload (%v) not below full reload (%v)", name, diffed, full)
		}
		// The saving must be dramatic — revival is pure bookkeeping.
		if float64(full)/float64(diffed) < 10 {
			t.Errorf("%s: saving only %.1fx", name, float64(full)/float64(diffed))
		}
	}
	if len(r.FullReload) != 16 {
		t.Errorf("covered %d functions", len(r.FullReload))
	}
}

func TestE10PrefetchShape(t *testing.T) {
	r, err := RunE10(400)
	if err != nil {
		t.Fatal(err)
	}
	// Cyclic is perfectly predictable: prefetching must transform the
	// hit rate (off ≈ 0) and slash mean latency.
	if off, on := r.HitRate["cyclic"]["off"], r.HitRate["cyclic"]["on"]; on < off+0.5 {
		t.Errorf("cyclic: prefetch raised hit rate only %.3f → %.3f", off, on)
	}
	if off, on := r.MeanLatency["cyclic"]["off"], r.MeanLatency["cyclic"]["on"]; on >= off {
		t.Errorf("cyclic: prefetch did not cut latency (%v → %v)", off, on)
	}
	// Uniform is unpredictable: prefetching must not devastate the hit
	// rate (mispredictions evict, so a modest cost is acceptable).
	if off, on := r.HitRate["uniform"]["off"], r.HitRate["uniform"]["on"]; on < off-0.15 {
		t.Errorf("uniform: prefetch harmed hit rate %.3f → %.3f", off, on)
	}
	// markov(0.9) sits between: a large but not total prefetch gain.
	mGain := r.HitRate["markov0.9"]["on"] - r.HitRate["markov0.9"]["off"]
	cGain := r.HitRate["cyclic"]["on"] - r.HitRate["cyclic"]["off"]
	uGain := r.HitRate["uniform"]["on"] - r.HitRate["uniform"]["off"]
	if !(uGain < mGain && mGain < cGain) {
		t.Errorf("prefetch gain not ordered by predictability: uniform %.3f, markov %.3f, cyclic %.3f",
			uGain, mGain, cGain)
	}
}

func TestE11BatchingShape(t *testing.T) {
	r, err := RunE11(16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Batching never loses to sequential.
	for fn, bs := range r.BatchSpeedup {
		if bs < r.SeqSpeedup[fn] {
			t.Errorf("%s: batching (%.2fx) below sequential (%.2fx)", fn, bs, r.SeqSpeedup[fn])
		}
	}
	// The headline: batching rescues sha256 (card-bound once the bus
	// overlaps) but cannot rescue aes128 (bus-bound either way).
	if r.SeqSpeedup["sha256"] >= 1 {
		t.Errorf("sha256 sequential %.2fx — expected below 1", r.SeqSpeedup["sha256"])
	}
	if r.BatchSpeedup["sha256"] <= 1 {
		t.Errorf("sha256 batched %.2fx — batching should rescue it", r.BatchSpeedup["sha256"])
	}
	if r.BatchSpeedup["aes128"] >= 1 {
		t.Errorf("aes128 batched %.2fx — the half-duplex bus should still cap it", r.BatchSpeedup["aes128"])
	}
	// Compute-dense kernels gain further from hiding the bus.
	if r.BatchSpeedup["modexp64"] <= r.SeqSpeedup["modexp64"] {
		t.Error("modexp64 gained nothing from batching")
	}
}

func TestE12ScalingShape(t *testing.T) {
	r, err := RunE12(400)
	if err != nil {
		t.Fatal(err)
	}
	// Hit rate must be non-decreasing in device size (within noise) and
	// substantially better at the top than the bottom.
	first, last := E12Cols[0], E12Cols[len(E12Cols)-1]
	if r.HitRate[last] < r.HitRate[first]+0.2 {
		t.Errorf("scaling flat: %.3f @ %d frames vs %.3f @ %d",
			r.HitRate[first], first, r.HitRate[last], last)
	}
	prev := -1.0
	for _, cols := range E12Cols {
		if r.HitRate[cols]+0.05 < prev {
			t.Errorf("hit rate dropped at %d frames: %.3f < %.3f", cols, r.HitRate[cols], prev)
		}
		if r.HitRate[cols] > prev {
			prev = r.HitRate[cols]
		}
	}
	// Latency moves the other way.
	if r.MeanLatency[last] >= r.MeanLatency[first] {
		t.Errorf("latency did not fall with size: %v → %v", r.MeanLatency[first], r.MeanLatency[last])
	}
}

func TestE13SchedulingShape(t *testing.T) {
	r, err := RunE13(300)
	if err != nil {
		t.Fatal(err)
	}
	// Reconfiguration-aware ordering beats FIFO on total time; sticky is
	// the throughput bound, window sits between on fairness.
	if r.TotalTime["sticky"] >= r.TotalTime["fifo"] {
		t.Errorf("sticky (%v) not faster than fifo (%v)", r.TotalTime["sticky"], r.TotalTime["fifo"])
	}
	if r.TotalTime["window"] >= r.TotalTime["fifo"] {
		t.Errorf("window (%v) not faster than fifo (%v)", r.TotalTime["window"], r.TotalTime["fifo"])
	}
	if r.MaxDisplacement["fifo"] != 0 {
		t.Errorf("fifo overtaking = %d", r.MaxDisplacement["fifo"])
	}
	if r.MaxDisplacement["sticky"] <= r.MaxDisplacement["window"] {
		t.Errorf("sticky overtaking (%d) should exceed window's (%d)",
			r.MaxDisplacement["sticky"], r.MaxDisplacement["window"])
	}
	if r.HitRate["sticky"] <= r.HitRate["fifo"] {
		t.Errorf("sticky hit rate %.3f not above fifo %.3f", r.HitRate["sticky"], r.HitRate["fifo"])
	}
}

func TestE14ReliabilityShape(t *testing.T) {
	r, err := RunE14(300, 10)
	if err != nil {
		t.Fatal(err)
	}
	// More frequent scrubbing shrinks the window of vulnerability and
	// costs more scrub time.
	if r.VulnerableFrac[1] >= r.VulnerableFrac[100] {
		t.Errorf("scrub-every-1 vulnerability %.3f not below scrub-every-100 %.3f",
			r.VulnerableFrac[1], r.VulnerableFrac[100])
	}
	if r.VulnerableFrac[0] < r.VulnerableFrac[5] {
		t.Errorf("never-scrub vulnerability %.3f below scrub-every-5 %.3f",
			r.VulnerableFrac[0], r.VulnerableFrac[5])
	}
	if r.ScrubOverhead[1] <= r.ScrubOverhead[100] {
		t.Errorf("scrub-every-1 overhead %v not above scrub-every-100 %v",
			r.ScrubOverhead[1], r.ScrubOverhead[100])
	}
	if r.ScrubOverhead[0] != 0 {
		t.Error("never-scrub paid scrub time")
	}
	if r.Repaired[1] == 0 {
		t.Error("frequent scrubbing repaired nothing")
	}
}

func TestE15ClusterShape(t *testing.T) {
	r, err := RunE15(300)
	if err != nil {
		t.Fatal(err)
	}
	// Partitioning four cards makes the whole bank resident: hit rate
	// near 1, far above any replicated configuration.
	if r.HitRate["4/partition"] < 0.9 {
		t.Errorf("4/partition hit rate %.3f, want ≈1", r.HitRate["4/partition"])
	}
	if r.HitRate["4/partition"] <= r.HitRate["4/replicate"] {
		t.Errorf("partition (%.3f) not above replicate (%.3f) at 4 cards",
			r.HitRate["4/partition"], r.HitRate["4/replicate"])
	}
	if r.HitRate["1/replicate"] >= r.HitRate["4/partition"] {
		t.Error("single card matched the partitioned cluster")
	}
	if r.MeanLatency["4/partition"] >= r.MeanLatency["1/replicate"] {
		t.Errorf("partitioned latency %v not below single card %v",
			r.MeanLatency["4/partition"], r.MeanLatency["1/replicate"])
	}
}

func TestCatalogueExtended(t *testing.T) {
	exps := All()
	if len(exps) != 20 {
		t.Fatalf("%d experiments", len(exps))
	}
	// Numeric ordering: e9 before e10.
	if exps[8].ID != "e9" || exps[9].ID != "e10" {
		t.Errorf("ordering wrong: %s, %s", exps[8].ID, exps[9].ID)
	}
	for _, id := range []string{"e9", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e20", "e23"} {
		if _, err := ByID(id); err != nil {
			t.Errorf("ByID(%s): %v", id, err)
		}
	}
}

func TestE23NetPathShape(t *testing.T) {
	r, err := RunE23(400, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineOpsPerSec <= 0 || r.MuxBatchOpsPerSec <= 0 {
		t.Fatalf("non-positive throughput: %v / %v", r.BaselineOpsPerSec, r.MuxBatchOpsPerSec)
	}
	// The wall-clock speedup is asserted by the benchmark at full scale;
	// here we pin the deterministic shape behind it: every request passes
	// through the batcher, windows actually form (fewer flushes than
	// requests), and the cluster serves the windows as coalesced runs the
	// baseline never sees.
	if r.BatchedJobs != uint64(r.Requests) {
		t.Errorf("batched jobs = %d, want every one of %d requests", r.BatchedJobs, r.Requests)
	}
	if r.BatchWindows == 0 || r.BatchWindows >= uint64(r.Requests) {
		t.Errorf("batch windows = %d for %d requests — no cross-client coalescing", r.BatchWindows, r.Requests)
	}
	if r.MuxBatchCoalesced <= r.BaselineCoalesced {
		t.Errorf("mux arm coalesced %d jobs, baseline %d — batching added nothing",
			r.MuxBatchCoalesced, r.BaselineCoalesced)
	}
	if len(r.Table.Rows) != 2 {
		t.Errorf("table rows = %d", len(r.Table.Rows))
	}
}

func TestE16ThroughputShape(t *testing.T) {
	r, err := RunE16(400)
	if err != nil {
		t.Fatal(err)
	}
	if r.SerialOpsPerSec <= 0 || r.ConcurrentOpsPerSec <= 0 {
		t.Fatalf("non-positive throughput: %v / %v", r.SerialOpsPerSec, r.ConcurrentOpsPerSec)
	}
	// The wall-clock speedup itself is asserted by the benchmark; here
	// we pin the work-avoidance shape behind it, which is deterministic.
	if r.ConcurrentHitRate <= r.SerialHitRate {
		t.Errorf("affinity hit rate %.3f not above replicate %.3f",
			r.ConcurrentHitRate, r.SerialHitRate)
	}
	if r.ConcurrentFramesLoaded >= r.SerialFramesLoaded {
		t.Errorf("affinity loaded %d frames, replicate %d — no work avoided",
			r.ConcurrentFramesLoaded, r.SerialFramesLoaded)
	}
	if r.DecompCacheHits == 0 {
		t.Error("decoded-frame cache never hit")
	}
	if len(r.Table.Rows) != 2 {
		t.Errorf("table rows = %d", len(r.Table.Rows))
	}
}

// BenchmarkE16Throughput runs E16 at bench scale and holds its
// wall-clock bar: the async affinity layer must serve the Zipf mix at
// least 2x the serial replicate dispatcher's ops/sec.
func BenchmarkE16Throughput(b *testing.B) {
	var last *E16Result
	for i := 0; i < b.N; i++ {
		r, err := RunE16(1000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.SerialOpsPerSec, "serial-ops/sec")
	b.ReportMetric(last.ConcurrentOpsPerSec, "concurrent-ops/sec")
	b.ReportMetric(last.Speedup, "speedup")
	if last.Speedup < 2 {
		b.Fatalf("concurrent speedup %.2fx, want >= 2x", last.Speedup)
	}
}
