package agilefpga

// One benchmark per experiment table/series (E1–E8, DESIGN.md §6) plus
// micro-benchmarks of the hot paths. The experiment benchmarks execute
// the same runners as cmd/agilebench at reduced scale and surface their
// headline numbers through b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates every result the reproduction reports in EXPERIMENTS.md.

import (
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/compress"
	"agilefpga/internal/core"
	"agilefpga/internal/exp"
	"agilefpga/internal/fpga"
)

func BenchmarkE1_EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE1()
		if err != nil {
			b.Fatal(err)
		}
		if r.Verified != r.Total {
			b.Fatalf("verified %d/%d", r.Verified, r.Total)
		}
	}
}

func BenchmarkE2_Compression(b *testing.B) {
	var last *exp.E2Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE2()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Ratio["framediff"], "framediff-ratio")
	b.ReportMetric(last.Ratio["lz77"], "lz77-ratio")
}

func BenchmarkE3_Replacement(b *testing.B) {
	var last *exp.E3Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE3(400)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.HitRate["zipf"]["lru"], "zipf-lru-hitrate")
	b.ReportMetric(last.HitRate["zipf"]["opt"], "zipf-opt-hitrate")
}

func BenchmarkE4_Placement(b *testing.B) {
	var last *exp.E4Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE4(300)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Evictions["contiguous"]), "contig-evictions")
	b.ReportMetric(float64(last.Evictions["scatter"]), "scatter-evictions")
}

func BenchmarkE5_Offload(b *testing.B) {
	var last *exp.E5Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE5(8 * 1024)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.KernelSpeedup["modexp64"], "modexp-kernel-x")
	b.ReportMetric(last.E2ESpeedup["modexp64"], "modexp-e2e-x")
	b.ReportMetric(last.E2ESpeedup["aes128"], "aes-e2e-x")
}

func BenchmarkE6_Crossover(b *testing.B) {
	var last *exp.E6Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE6(50_000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.HotCrossover["modexp64"]), "modexp-crossover-B")
}

func BenchmarkE7_Window(b *testing.B) {
	var last *exp.E7Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE7()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ConfigPath[exp.E7Windows[0]].Microseconds(), "win16-us")
	b.ReportMetric(last.ConfigPath[exp.E7Windows[2]].Microseconds(), "win256-us")
}

func BenchmarkE8_ROMCapacity(b *testing.B) {
	var last *exp.E8Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE8()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	size := exp.E8ROMSizes[len(exp.E8ROMSizes)-1]
	b.ReportMetric(float64(last.Capacity[size]["none"]), "1MiB-none-fns")
	b.ReportMetric(float64(last.Capacity[size]["framediff"]), "1MiB-framediff-fns")
}

func BenchmarkE9_DiffReload(b *testing.B) {
	var last *exp.E9Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE9()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.FullReload["viterbi"])/float64(last.DiffReload["viterbi"]), "viterbi-saving-x")
}

func BenchmarkE10_Prefetch(b *testing.B) {
	var last *exp.E10Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE10(400)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.HitRate["cyclic"]["on"], "cyclic-prefetch-hitrate")
	b.ReportMetric(last.HitRate["cyclic"]["off"], "cyclic-base-hitrate")
}

func BenchmarkE11_Batching(b *testing.B) {
	var last *exp.E11Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE11(16, 4096)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.BatchSpeedup["sha256"], "sha256-batch-x")
	b.ReportMetric(last.SeqSpeedup["sha256"], "sha256-seq-x")
}

func BenchmarkE12_Scaling(b *testing.B) {
	var last *exp.E12Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE12(400)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.HitRate[exp.E12Cols[0]], "smallest-hitrate")
	b.ReportMetric(last.HitRate[exp.E12Cols[len(exp.E12Cols)-1]], "largest-hitrate")
}

func BenchmarkE13_Scheduling(b *testing.B) {
	var last *exp.E13Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE13(300)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.HitRate["fifo"], "fifo-hitrate")
	b.ReportMetric(last.HitRate["sticky"], "sticky-hitrate")
	b.ReportMetric(float64(last.MaxDisplacement["window"]), "window-overtaking")
}

func BenchmarkE14_Reliability(b *testing.B) {
	var last *exp.E14Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE14(300, 10)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.VulnerableFrac[0], "never-scrub-vuln")
	b.ReportMetric(last.VulnerableFrac[5], "scrub5-vuln")
}

func BenchmarkE15_Cluster(b *testing.B) {
	var last *exp.E15Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE15(300)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.HitRate["1/replicate"], "1card-hitrate")
	b.ReportMetric(last.HitRate["4/partition"], "4card-partition-hitrate")
}

// BenchmarkE18_PipelinedColdLoad compares the additive sequential
// configuration model against the pipelined one (DESIGN §12) on
// whole-bank cold loads. The acceptance bar is framediff ≥ 1.4×.
func BenchmarkE18_PipelinedColdLoad(b *testing.B) {
	var last *exp.E18Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE18()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Speedup["framediff"], "framediff-speedup")
	b.ReportMetric(last.Speedup["huffman"], "huffman-speedup")
	b.ReportMetric(last.Speedup["none"], "none-speedup")
	if last.Speedup["framediff"] < 1.4 {
		b.Fatalf("framediff pipelined speedup %.2fx, want >= 1.4x", last.Speedup["framediff"])
	}
}

// BenchmarkE20_Chaining compares on-fabric function chaining (DESIGN
// §15) against per-stage staged calls, warm. The acceptance bar: the
// chained batch beats the two-pass staged CallBatch ceiling and the
// per-item chain beats the staged sum for both reference chains.
func BenchmarkE20_Chaining(b *testing.B) {
	var last *exp.E20Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE20(16, 2048)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if !last.Identical {
		b.Fatal("chained outputs diverged from staged outputs")
	}
	for _, chain := range []string{"sha256->aes128", "fir16->fft64"} {
		itemX := float64(last.StagedLatency[chain]) / float64(last.ChainLatency[chain])
		batchX := float64(last.StagedBatch[chain]) / float64(last.ChainBatch[chain])
		b.ReportMetric(itemX, chain+"-x")
		b.ReportMetric(batchX, chain+"-batch-x")
		if itemX <= 1 || batchX <= 1 {
			b.Fatalf("%s: chaining did not win (item %.2fx, batch %.2fx)", chain, itemX, batchX)
		}
	}
}

// BenchmarkE11_ClusterThroughput compares the serial replicate
// dispatcher against the async serving layer (4 cards, 4 submitters,
// affinity routing + decoded-frame cache) on the same mixed Zipf
// workload, in wall-clock ops/sec. The acceptance bar is speedup ≥ 2×.
func BenchmarkE11_ClusterThroughput(b *testing.B) {
	var last *exp.E16Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunE16(1000)
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

// --- Micro-benchmarks: hot paths of the simulator itself ---

func benchInput(n int) []byte {
	in := make([]byte, n)
	for i := range in {
		in[i] = byte(i*31 + 7)
	}
	return in
}

func BenchmarkHotCall(b *testing.B) {
	cp, err := core.New(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cp.Install(algos.AES128()); err != nil {
		b.Fatal(err)
	}
	in := benchInput(4096)
	if _, err := cp.CallID(algos.IDAES128, in); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.CallID(algos.IDAES128, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColdLoad(b *testing.B) {
	cp, err := core.New(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cp.Install(algos.SHA256()); err != nil {
		b.Fatal(err)
	}
	in := benchInput(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Controller().Evict(algos.IDSHA256)
		if _, err := cp.CallID(algos.IDSHA256, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesize(b *testing.B) {
	g := fpga.DefaultGeometry
	f := algos.Bitonic()
	codec := mustCodec(b, "none")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.BuildImage(g, f, codec, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func mustCodec(b *testing.B, name string) compress.Codec {
	b.Helper()
	c, err := compress.New(name, fpga.DefaultGeometry.FrameBytes())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchCodec(b *testing.B, name string) {
	g := fpga.DefaultGeometry
	codec := mustCodec(b, name)
	_, blob, err := core.BuildImage(g, algos.FFT(), codec, 1)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := codec.Decompress(blob)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressRLE(b *testing.B)       { benchCodec(b, "rle") }
func BenchmarkDecompressLZ77(b *testing.B)      { benchCodec(b, "lz77") }
func BenchmarkDecompressHuffman(b *testing.B)   { benchCodec(b, "huffman") }
func BenchmarkDecompressFrameDiff(b *testing.B) { benchCodec(b, "framediff") }
